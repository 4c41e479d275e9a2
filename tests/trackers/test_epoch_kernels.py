"""Array-kernel / scalar parity for the tracker epoch API.

``observe_epoch`` must equal chunk-by-chunk ``observe_batch`` calls --
crossings per chunk AND full internal state -- and the epoch planning
predicates (``epoch_cannot_cross``, ``sparse_feed_mask``,
``settle_epoch_counters``) must never change what a scheme could
observe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trackers import (
    ExactTracker,
    HydraTracker,
    MisraGriesTracker,
    PerRowCounterTracker,
)
from repro.trackers.misra_gries import MisraGriesBank


def _stream(seed: int, n: int = 300, rows: int = 40, zero_every: int = 0):
    rng = np.random.default_rng(seed)
    row_ids = rng.integers(0, rows, size=n).astype(np.int64)
    counts = rng.integers(1, 60, size=n).astype(np.int64)
    if zero_every:
        counts[::zero_every] = 0
    return row_ids, counts


TRACKER_FACTORIES = {
    "exact": lambda: ExactTracker(100),
    "per-row": lambda: PerRowCounterTracker(100, cache_entries=8),
    "misra-gries": lambda: MisraGriesTracker(100, num_banks=4),
    "misra-gries-tiny": lambda: MisraGriesTracker(
        100, num_banks=4, entries_per_bank=3
    ),
    "hydra": lambda: HydraTracker(100),
}


@pytest.mark.parametrize("name", sorted(TRACKER_FACTORIES))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("zero_every", (0, 7))
def test_observe_epoch_matches_batched_observe(name, seed, zero_every):
    rows, counts = _stream(seed, zero_every=zero_every)
    vec = TRACKER_FACTORIES[name]()
    ref = TRACKER_FACTORIES[name]()
    got = vec.observe_epoch(rows, counts)
    want = np.array(
        [ref.observe_batch(int(r), int(c)) for r, c in zip(rows, counts)],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(got, want)
    assert vec.observations == ref.observations
    assert vec.triggers == ref.triggers
    for row in np.unique(rows).tolist():
        assert vec.estimate(int(row)) == ref.estimate(int(row))


@pytest.mark.parametrize("name", sorted(TRACKER_FACTORIES))
@pytest.mark.parametrize("seed", (3, 4))
def test_epoch_cannot_cross_is_sound(name, seed):
    """A cannot-cross verdict must mean zero crossings when fed."""
    rows, counts = _stream(seed, n=60, rows=30)
    tracker = TRACKER_FACTORIES[name]()
    uniq, inverse = np.unique(rows, return_inverse=True)
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    if tracker.epoch_cannot_cross(uniq, totals):
        crossings = tracker.observe_epoch(rows, counts)
        assert int(crossings.sum()) == 0


def test_epoch_cannot_cross_rejects_hot_rows():
    tracker = ExactTracker(100)
    uniq = np.array([5], dtype=np.int64)
    totals = np.array([150], dtype=np.int64)
    assert not tracker.epoch_cannot_cross(uniq, totals)
    # Carry-in counts push a small epoch total over the line.
    tracker.observe_batch(7, 80)
    assert not tracker.epoch_cannot_cross(
        np.array([7], dtype=np.int64), np.array([30], dtype=np.int64)
    )


def test_sparse_feed_mask_omission_is_unobservable():
    """Feeding only the masked rows of a fresh bank (and settling the
    rest in bulk) must leave identical estimates and crossings for the
    fed rows, and identical rank/bank counters."""
    full = MisraGriesTracker(100, num_banks=2, entries_per_bank=32)
    sparse = MisraGriesTracker(100, num_banks=2, entries_per_bank=32)
    rows, counts = _stream(8, n=120, rows=20)
    uniq, inverse = np.unique(rows, return_inverse=True)
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    feed = sparse.sparse_feed_mask(uniq, totals)
    full_crossings = full.observe_epoch(rows, counts)
    chunk_feed = feed[inverse]
    sparse_crossings = sparse.observe_epoch(
        rows[chunk_feed], counts[chunk_feed]
    )
    sparse.settle_epoch_counters(rows[~chunk_feed], counts[~chunk_feed])
    np.testing.assert_array_equal(
        full_crossings[chunk_feed], sparse_crossings
    )
    assert int(full_crossings[~chunk_feed].sum()) == 0
    for row, must_feed in zip(uniq.tolist(), feed.tolist()):
        if must_feed:
            assert sparse.estimate(int(row)) == full.estimate(int(row))
    assert sparse.observations == full.observations
    assert sparse.triggers == full.triggers


def test_sparse_feed_mask_conservative_under_pressure():
    """Capacity pressure, reserve, carried state, or spill force a
    full feed (all-True mask)."""
    bank = MisraGriesBank(100, capacity=4)
    uniq = np.arange(6, dtype=np.int64)
    totals = np.full(6, 10, dtype=np.int64)
    assert bank.sparse_feed_mask(uniq, totals).all()  # over capacity
    small = uniq[:2]
    small_totals = totals[:2]
    assert not bank.sparse_feed_mask(small, small_totals).any()
    assert bank.sparse_feed_mask(small, small_totals, reserve=3).all()
    bank.observe_batch(99, 1)  # non-empty table
    assert bank.sparse_feed_mask(small, small_totals).all()


def test_settle_epoch_counters_matches_feeding_exact():
    """For exact counters the settled totals are observable state."""
    fed = ExactTracker(1000)
    settled = ExactTracker(1000)
    rows, counts = _stream(9, n=50, rows=10)
    fed.observe_epoch(rows, counts)
    settled.settle_epoch_counters(rows, counts)
    assert settled.observations == fed.observations
    for row in np.unique(rows).tolist():
        assert settled.estimate(int(row)) == fed.estimate(int(row))

