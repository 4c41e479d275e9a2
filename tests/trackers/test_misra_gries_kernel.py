"""The Misra-Gries chunk kernel against a per-activation model.

``ReferenceBank`` is written from Sec. IV-B of the AQUA paper (the
Graphene spill-counter rule) one activation at a time, and shares no
code with ``repro.trackers``.  Every entry point of
:class:`MisraGriesBank` -- ``observe_batch``, ``observe``, ``drop`` and
``reset`` -- must leave exactly the model's state: estimates, the spill
counter, the eviction order among equal counts, the statistics, and the
``tracker_install`` / ``tracker_evict`` events.  The rank-level
:class:`MisraGriesTracker` must equal one model per bank under any
``bank_of``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.trackers.misra_gries import MisraGriesBank, MisraGriesTracker


class ReferenceBank:
    """Per-activation Misra-Gries summary with a spill counter.

    Per activation of ``row``: a tracked row counts up; an untracked
    row takes a free entry at ``spill + 1``; on a full table the spill
    counter counts up, and once it reaches the smallest tracked count
    the oldest entry at that count is evicted and ``row`` installs at
    ``spill + 1``.  A row fires whenever its estimate reaches a
    multiple of the threshold.

    A chunk of ``n`` activations that installs its row inherits a
    non-zero spill counter as a spurious estimate (Sec. IV-F): every
    crossing from the install to the end of that chunk counts as a
    spurious install.
    """

    def __init__(self, threshold, capacity):
        self.threshold = threshold
        self.capacity = capacity
        self.spill = 0
        self.entries = {}  # row -> [estimate, arrival stamp]
        self.stamp = 0
        self.observations = 0
        self.triggers = 0
        self.spurious_installs = 0
        self.events = []

    def _set(self, row, estimate):
        self.stamp += 1
        self.entries[row] = [estimate, self.stamp]

    def _activate(self, row):
        """One activation; returns (fired, installed-at-spill or None)."""
        if row in self.entries:
            self._set(row, self.entries[row][0] + 1)
        elif len(self.entries) < self.capacity:
            self._set(row, self.spill + 1)
            return self._fired(row), self.spill
        else:
            self.spill += 1
            smallest = min(est for est, _ in self.entries.values())
            if self.spill < smallest:
                return False, None
            victim = min(
                (stamp, r)
                for r, (est, stamp) in self.entries.items()
                if est == smallest
            )[1]
            del self.entries[victim]
            self.events.append(("tracker_evict", victim, smallest, row))
            self._set(row, self.spill + 1)
            return self._fired(row), self.spill
        return self._fired(row), None

    def _fired(self, row):
        return self.entries[row][0] % self.threshold == 0

    def feed(self, row, n):
        """``n`` back-to-back activations; returns the crossings."""
        self.observations += n
        crossings = 0
        base = None
        after_install = 0
        for _ in range(n):
            fired, installed_at = self._activate(row)
            if installed_at is not None:
                base = installed_at
            crossings += fired
            if base is not None:
                after_install += fired
        if base is not None:
            spurious = after_install > 0 and base > 0
            self.events.append((
                "tracker_install", row, self.entries[row][0], base, spurious
            ))
            if spurious:
                self.spurious_installs += after_install
        self.triggers += crossings
        return crossings

    def drop(self, row):
        return self.entries.pop(row, None) is not None

    def reset(self):
        self.spill = 0
        self.entries.clear()

    def state(self):
        """Estimates in eviction order: by count, then by arrival."""
        order = sorted(
            self.entries.items(), key=lambda item: (item[1][0], item[1][1])
        )
        return (
            [(row, est) for row, (est, _) in order],
            self.spill,
            self.observations,
            self.triggers,
            self.spurious_installs,
        )


class Recorder:
    """Telemetry stand-in that keeps the tracker's events."""

    enabled = True

    def __init__(self):
        self.events = []

    def event(self, kind, ts_ns, **attrs):
        if kind == "tracker_install":
            self.events.append((
                kind, attrs["row"], attrs["estimate"], attrs["spill"],
                attrs["spurious"],
            ))
        else:
            self.events.append(
                (kind, attrs["row"], attrs["estimate"], attrs["replaced_by"])
            )
        return True

    def inc(self, name, amount=1.0, **labels):
        pass


def _bank_state(bank):
    """The bank's estimates in eviction order, plus its statistics."""
    order = [
        (row, count)
        for count in sorted(bank._buckets)
        for row in bank._buckets[count]
    ]
    assert dict(order) == bank._counts
    assert bank.min_count() == min(bank._counts.values(), default=0)
    return (
        order,
        bank.spill,
        bank.observations,
        bank.triggers,
        bank.spurious_installs,
    )


rows = st.integers(0, 9)
# Counts up to a few thresholds, so chunks land exactly on multiples,
# with 0 included.
counts = st.integers(0, 25)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), rows, counts),
        st.tuples(st.just("observe"), rows, st.just(1)),
        st.tuples(st.just("drop"), rows, st.just(0)),
        st.tuples(st.just("reset"), st.just(0), st.just(0)),
    ),
    max_size=80,
)
thresholds = st.integers(1, 8)
capacities = st.integers(1, 4)


def _apply(tracker, model, op, row, count):
    if op == "batch":
        assert tracker.observe_batch(row, count) == model.feed(row, count)
    elif op == "observe":
        assert tracker.observe(row) == (model.feed(row, 1) > 0)
    elif op == "drop":
        assert tracker.drop(row) == model.drop(row)
    else:
        tracker.reset()
        model.reset()


@given(thresholds, capacities, operations, st.booleans())
@settings(max_examples=500, deadline=None)
def test_bank_matches_model(threshold, capacity, ops, traced):
    bank = MisraGriesBank(threshold, capacity=capacity)
    model = ReferenceBank(threshold, capacity)
    recorder = Recorder()
    if traced:
        bank.attach_telemetry(recorder, lambda: 0.0)
    for op, row, count in ops:
        _apply(bank, model, op, row, count)
        assert _bank_state(bank) == model.state()
        for probe in range(10):
            entry = model.entries.get(probe)
            assert bank.estimate(probe) == (entry[0] if entry else 0)
    if traced:
        assert recorder.events == model.events


@pytest.mark.parametrize(
    "capacity, stream",
    [
        # Fill, then misses until the spill reaches the minimum (3):
        # the third miss of row 9 evicts row 1, the oldest at 3.
        (2, [(1, 3), (2, 3), (9, 2), (9, 1), (9, 4)]),
        # Capacity 1: every new row evicts the only entry once the
        # spill catches up, and lands on a threshold multiple.
        (1, [(1, 4), (2, 4), (3, 5), (3, 0), (4, 10)]),
        # Spill already past the minimum after a drop re-opens a slot.
        (2, [(1, 1), (2, 6), (3, 2), (2, 0), (5, 1), (6, 7), (7, 1)]),
    ],
)
def test_spill_catches_minimum(capacity, stream):
    bank = MisraGriesBank(5, capacity=capacity)
    model = ReferenceBank(5, capacity)
    for row, count in stream:
        if count == 0:
            assert bank.drop(row) == model.drop(row)
        else:
            assert bank.observe_batch(row, count) == model.feed(row, count)
        assert _bank_state(bank) == model.state()


def _bank_of(num_banks):
    # Not modulo: neighbouring rows share a bank.
    return lambda row: (row // 3) % num_banks


@given(
    thresholds,
    capacities,
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 17), counts), max_size=60),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rank_tracker_matches_one_model_per_bank(
    threshold, capacity, num_banks, chunks, as_epoch
):
    bank_of = _bank_of(num_banks)
    tracker = MisraGriesTracker(
        threshold, num_banks=num_banks, bank_of=bank_of,
        entries_per_bank=capacity,
    )
    models = [ReferenceBank(threshold, capacity) for _ in range(num_banks)]
    expected = [models[bank_of(row)].feed(row, n) for row, n in chunks]
    if as_epoch:
        got = tracker.observe_epoch(
            np.array([row for row, _ in chunks], dtype=np.int64),
            np.array([n for _, n in chunks], dtype=np.int64),
        ).tolist()
    else:
        got = [tracker.observe_batch(row, n) for row, n in chunks]
    assert got == expected
    for bank, model in zip(tracker.banks, models):
        assert _bank_state(bank) == model.state()
    assert tracker.observations == sum(m.observations for m in models)
    assert tracker.triggers == sum(m.triggers for m in models)
    assert tracker.spurious_installs == sum(
        m.spurious_installs for m in models
    )
    for row in range(18):
        entry = models[bank_of(row)].entries.get(row)
        assert tracker.estimate(row) == (entry[0] if entry else 0)


def test_rejects_negative_count():
    with pytest.raises(ValueError):
        MisraGriesBank(10, capacity=2).observe_batch(0, -1)
    with pytest.raises(ValueError):
        MisraGriesTracker(10, num_banks=2).observe_batch(0, -1)
