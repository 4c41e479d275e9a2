"""Hydra's closed-form chunk kernel against a per-activation model.

``ReferenceHydra`` is written from the Hydra paper (Qureshi et al.,
ISCA 2022) and the tracker's module docstring, one activation at a
time, and shares no code with ``repro.trackers``.  Every entry point of
:class:`HydraTracker` -- ``observe_batch``, ``observe`` and
``observe_epoch`` -- must leave exactly the model's state: GCT, RCT,
RCC contents in LRU order, and the four statistics.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.trackers.hydra import HydraTracker


class ReferenceHydra:
    """Per-activation Hydra: GCT -> RCT install -> RCC-cached counters."""

    def __init__(self, threshold, rows_per_group, group_threshold, rcc_entries):
        self.threshold = threshold
        self.rows_per_group = rows_per_group
        self.group_threshold = group_threshold
        self.rcc_entries = rcc_entries
        self.gct = {}
        self.rct = {}
        self.rcc = []  # least recently used first
        self.observations = 0
        self.triggers = 0
        self.rcc_hits = 0
        self.rct_dram_accesses = 0

    def activate(self, row):
        """One activation; returns whether it triggers a mitigation."""
        self.observations += 1
        if row in self.rct:
            self.rct[row] += 1
        else:
            group = row // self.rows_per_group
            self.gct[group] = self.gct.get(group, 0) + 1
            if self.gct[group] < self.group_threshold:
                return False
            self.rct[row] = self.gct[group]
        if row in self.rcc:
            self.rcc.remove(row)
            self.rcc_hits += 1
        else:
            self.rct_dram_accesses += 1
            if len(self.rcc) == self.rcc_entries:
                self.rcc.pop(0)
        self.rcc.append(row)
        fired = self.rct[row] % self.threshold == 0
        self.triggers += fired
        return fired

    def drop(self, row):
        self.rct.pop(row, None)
        if row in self.rcc:
            self.rcc.remove(row)

    def reset(self):
        self.gct.clear()
        self.rct.clear()
        self.rcc.clear()


def _state(tracker):
    if isinstance(tracker, ReferenceHydra):
        tables = (tracker.gct, tracker.rct, tracker.rcc)
    else:
        tables = (tracker._gct, tracker._rct, list(tracker._rcc))
    return tables + (
        tracker.observations,
        tracker.triggers,
        tracker.rcc_hits,
        tracker.rct_dram_accesses,
    )


@st.composite
def configs(draw):
    threshold = draw(st.integers(1, 12))
    return {
        "threshold": threshold,
        # group_threshold == threshold is a legal corner (no hidden
        # headroom), as is 1 (every activation installs).
        "group_threshold": draw(
            st.one_of(st.just(threshold), st.integers(1, threshold))
        ),
        "rows_per_group": draw(st.sampled_from((1, 2, 3, 4))),
        "rcc_entries": draw(st.sampled_from((1, 2, 3))),
    }


rows = st.integers(0, 11)
# Counts small enough to land exactly on group_threshold and on
# threshold multiples, with 0 included.
counts = st.integers(0, 30)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), rows, counts),
        st.tuples(st.just("observe"), rows, st.just(1)),
        st.tuples(st.just("drop"), rows, st.just(0)),
        st.tuples(st.just("reset"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


def _model_batch(model, row, count):
    return sum(model.activate(row) for _ in range(count))


@given(configs(), operations)
@settings(max_examples=400, deadline=None)
def test_observe_batch_and_observe_match_model(config, ops):
    tracker = HydraTracker(**config)
    model = ReferenceHydra(**config)
    for op, row, count in ops:
        if op == "batch":
            assert tracker.observe_batch(row, count) == _model_batch(
                model, row, count
            )
        elif op == "observe":
            assert tracker.observe(row) == model.activate(row)
        elif op == "drop":
            assert tracker.drop(row) == (row in model.rct)
            model.drop(row)
        else:
            tracker.reset()
            model.reset()
        assert _state(tracker) == _state(model)
        for probe in range(12):
            expected = model.rct.get(
                probe, model.gct.get(probe // model.rows_per_group, 0)
            )
            assert tracker.estimate(probe) == expected


@given(configs(), st.lists(st.lists(st.tuples(rows, counts), max_size=30),
                           max_size=4))
@settings(max_examples=200, deadline=None)
def test_observe_epoch_matches_model(config, epochs):
    tracker = HydraTracker(**config)
    model = ReferenceHydra(**config)
    for chunks in epochs:
        stream_rows = np.array([r for r, _ in chunks], dtype=np.int64)
        stream_counts = np.array([c for _, c in chunks], dtype=np.int64)
        mask = tracker.observe_epoch(stream_rows, stream_counts)
        expected = [_model_batch(model, r, c) for r, c in chunks]
        assert mask.tolist() == expected
        assert _state(tracker) == _state(model)
        tracker.reset()
        model.reset()


@pytest.mark.parametrize(
    "group_threshold, first, second",
    [
        (5, 5, 0),  # the chunk ends on the install activation
        (5, 4, 1),  # GCT one short, then a single install
        (5, 15, 5),  # install, cross T, later land exactly on 2T
        (10, 10, 10),  # group_threshold == threshold: install triggers
        (1, 1, 29),  # every activation installs at once
    ],
)
def test_threshold_landings_match_model(group_threshold, first, second):
    config = {
        "threshold": 10,
        "rows_per_group": 4,
        "group_threshold": group_threshold,
        "rcc_entries": 1,
    }
    tracker = HydraTracker(**config)
    model = ReferenceHydra(**config)
    for row, count in ((1, first), (2, second), (1, second), (3, 0)):
        assert tracker.observe_batch(row, count) == _model_batch(
            model, row, count
        )
        assert _state(tracker) == _state(model)


def test_rejects_negative_count_and_empty_rcc():
    with pytest.raises(ValueError):
        HydraTracker(threshold=10).observe_batch(0, -1)
    with pytest.raises(ValueError):
        HydraTracker(threshold=10, rcc_entries=0)
