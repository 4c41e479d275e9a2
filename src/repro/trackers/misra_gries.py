"""Misra-Gries (Graphene-style) aggressor tracker.

This is the default ART of the paper (Sec. IV-B): a per-bank Misra-Gries
frequent-item summary with a spill counter, as used by Graphene and RRS.

Semantics, per activation of row ``r``:

1. If ``r`` has an entry, increment its counter.
2. Else if a slot is free, install ``r`` with count ``spill + 1``.
3. Else increment the spill counter; if the spill counter reaches the
   minimum entry count, evict a minimum entry and install ``r`` with
   count ``spill + 1``.

A row fires a mitigation whenever its estimate reaches its *next
trigger point* (every ``threshold`` estimated activations).  Two
faithful artefacts of this design matter to the evaluation:

* **Guaranteed detection**: Misra-Gries never under-counts, so a row
  reaching the threshold is always flagged (security property P1).
* **Spurious mitigations** (Sec. IV-F): a newly installed row inherits
  ``spill + 1`` as its estimate; under streaming workloads with many
  distinct rows (e.g. ``imagick``) the spill counter itself can exceed
  the threshold, so a brand-new row fires a mitigation immediately,
  without ever having been activated ``threshold`` times.

The number of entries follows Graphene's provisioning: a bank can issue
at most ``ACTmax`` activations per epoch, so at most ``ACTmax / T`` rows
can truly cross the threshold ``T``, and that many entries suffice.

Implementation notes: counters live in frequency buckets (the classic
LFU structure) so every operation is O(1) amortised, and
:meth:`MisraGriesBank.observe_batch` folds ``n`` back-to-back
activations of one row into O(1) work -- the simulator feeds tens of
millions of activations through this code.  The minimum-bucket pointer
only moves up within an epoch (counts only grow, and installs never
land below the previous minimum), keeping the walk-up amortised
constant.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.dram.timing import DDR4_2400
from repro.trackers.base import AggressorTracker, PerBankTracker


def graphene_entries(threshold: int, act_max: int = None) -> int:
    """Number of Misra-Gries entries per bank for a given threshold.

    Graphene provisions ``ACTmax / T`` entries so that every row that can
    reach ``T`` activations in an epoch has a dedicated counter.
    """
    if act_max is None:
        act_max = DDR4_2400.act_max
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return max(1, act_max // threshold)


class MisraGriesBank(AggressorTracker):
    """Misra-Gries summary for one bank."""

    def __init__(self, threshold: int, capacity: int = None) -> None:
        super().__init__(threshold)
        if capacity is None:
            capacity = graphene_entries(threshold)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.spill = 0
        self._counts: Dict[int, int] = {}
        # Frequency buckets: count -> {row: None} (dict used as an
        # ordered set for O(1) membership and pop).
        self._buckets: Dict[int, Dict[int, None]] = {}
        self._min_count = 0
        self.spurious_installs = 0
        #: ``tracker_install`` / ``tracker_evict`` events offered while
        #: telemetry is attached; :meth:`MisraGriesTracker.collect_metrics`
        #: publishes them, so the chunk kernel touches no registry.
        self.install_events = 0
        self.evict_events = 0

    # ------------------------------------------------------------- internals

    def _bucket_remove(self, row_id: int, count: int) -> None:
        bucket = self._buckets[count]
        del bucket[row_id]
        if not bucket:
            del self._buckets[count]

    def _advance_min(self) -> None:
        """Move the min pointer up to the next non-empty bucket."""
        while self._counts and self._min_count not in self._buckets:
            self._min_count += 1

    # -------------------------------------------------------------- interface

    def observe(self, row_id: int) -> bool:
        return self.observe_batch(row_id, 1) > 0

    def observe_batch(self, row_id: int, n: int) -> int:
        """Record ``n`` back-to-back activations of ``row_id`` in O(1).

        The only copy of the update rule: every other entry point
        (``observe``, the rank tracker, the schemes' epoch loops) lands
        here.  The bucket and min-pointer maintenance is inlined, since
        this runs once per trace chunk.
        """
        if n < 1:
            if n < 0:
                raise ValueError("count must be non-negative")
            return 0
        self.observations += n
        threshold = self.threshold
        counts = self._counts
        buckets = self._buckets
        count = counts.get(row_id)
        if count is not None:
            bucket = buckets[count]
            del bucket[row_id]
            if not bucket:
                del buckets[count]
            new_count = count + n
            counts[row_id] = new_count
            other = buckets.get(new_count)
            if other is None:
                buckets[new_count] = {row_id: None}
            else:
                other[row_id] = None
            min_count = self._min_count
            while min_count not in buckets:
                min_count += 1
            self._min_count = min_count
            crossings = new_count // threshold - count // threshold
            if crossings:
                self.triggers += crossings
            return crossings
        telemetry = self._telemetry
        if len(counts) < self.capacity:
            base = self.spill
            new_count = base + n
        else:
            # Every miss increments the spill counter; the row installs
            # at the first miss where the spill reaches the current
            # minimum (evicting the oldest minimum entry), and the
            # chunk's remaining activations then increment the entry.
            min_count = self._min_count
            while min_count not in buckets:
                min_count += 1
            spill = self.spill
            misses = min_count - spill
            if misses < 1:
                misses = 1
            if n < misses:
                self.spill = spill + n
                self._min_count = min_count
                return 0
            spill += misses
            self.spill = spill
            bucket = buckets[min_count]
            victim = next(iter(bucket))
            del bucket[victim]
            if not bucket:
                del buckets[min_count]
            del counts[victim]
            if telemetry.enabled:
                telemetry.event(
                    "tracker_evict", self._clock(),
                    row=victim, estimate=min_count, replaced_by=row_id,
                )
                self.evict_events += 1
            if counts:
                while min_count not in buckets:
                    min_count += 1
            self._min_count = min_count
            base = spill
            new_count = spill + 1 + (n - misses)
        # Install at ``new_count``.  A mitigation fires only if the
        # estimate crossed a threshold multiple on the way from the
        # inherited spill ``base``; with ``base > 0`` such a firing is
        # spurious (Sec. IV-F): the row never truly received
        # ``threshold`` activations.
        counts[row_id] = new_count
        other = buckets.get(new_count)
        if other is None:
            buckets[new_count] = {row_id: None}
        else:
            other[row_id] = None
        if len(counts) == 1 or new_count < self._min_count:
            self._min_count = new_count
        crossings = new_count // threshold - base // threshold
        if crossings and base > 0:
            self.spurious_installs += crossings
        if telemetry.enabled:
            telemetry.event(
                "tracker_install", self._clock(),
                row=row_id, estimate=new_count, spill=base,
                spurious=bool(crossings and base > 0),
            )
            self.install_events += 1
        if crossings:
            self.triggers += crossings
        return crossings

    def epoch_cannot_cross(self, unique_rows, unique_totals) -> bool:
        """No crossings possible: fresh bank, room for every distinct
        row (the spill counter never moves, so estimates stay exact),
        and no row total reaching the threshold.  Spurious installs
        need a moving spill counter, so they are excluded too.
        """
        if self._counts or self.spill:
            return False
        if len(unique_rows) > self.capacity:
            return False
        return bool((unique_totals < self.threshold).all())

    def sparse_feed_mask(
        self,
        unique_rows: np.ndarray,
        unique_totals: np.ndarray,
        reserve: int = 0,
    ) -> np.ndarray:
        """Rows safe to omit from a fresh, never-full bank.

        When the bank starts empty and every distinct row -- plus up to
        ``reserve`` extra installs the caller may still cause -- fits in
        the table, no eviction ever happens and the spill counter never
        moves, so each row's estimate is its exact count, independent
        of every other row.  Omitting sub-threshold rows then changes
        nothing observable: they could not cross, and their absence
        cannot alter any other row's estimate.  Otherwise (non-empty
        bank, moving spill, or capacity pressure) everything must
        stream.
        """
        if (
            self._counts
            or self.spill
            or len(unique_rows) + reserve > self.capacity
        ):
            return np.ones(len(unique_rows), dtype=bool)
        return unique_totals >= self.threshold

    def estimate(self, row_id: int) -> int:
        return self._counts.get(row_id, 0)

    def drop(self, row_id: int) -> bool:
        count = self._counts.get(row_id)
        if count is None:
            return False
        self._bucket_remove(row_id, count)
        del self._counts[row_id]
        self._advance_min()
        return True

    def min_count(self) -> int:
        """Smallest tracked estimate (0 when the table is empty)."""
        if not self._counts:
            return 0
        self._advance_min()
        return self._min_count

    def reset(self) -> None:
        self.spill = 0
        self._counts.clear()
        self._buckets.clear()
        self._min_count = 0

    def __len__(self) -> int:
        return len(self._counts)


class MisraGriesTracker(PerBankTracker):
    """Rank-level ART: one Misra-Gries summary per bank."""

    def __init__(
        self,
        threshold: int,
        num_banks: int = 16,
        bank_of: Callable[[int], int] = None,
        entries_per_bank: int = None,
    ) -> None:
        if bank_of is None:
            bank_of = lambda row: row % num_banks  # noqa: E731
        super().__init__(
            threshold,
            num_banks,
            bank_of,
            factory=lambda t: MisraGriesBank(t, capacity=entries_per_bank),
        )

    @property
    def spurious_installs(self) -> int:
        """Total spill-inherited threshold crossings across banks."""
        return sum(bank.spurious_installs for bank in self.banks)

    def collect_metrics(self, telemetry, **labels) -> None:
        super().collect_metrics(telemetry, **labels)
        registry = telemetry.registry
        registry.counter("tracker_spurious_installs_total").set_total(
            self.spurious_installs, **labels
        )
        registry.gauge("tracker_entries").set(
            sum(len(bank) for bank in self.banks), **labels
        )
        # The install/evict event counters are unlabeled, and a run
        # that never offered such an event has no series.
        installs = sum(bank.install_events for bank in self.banks)
        if installs:
            registry.counter("tracker_installs_total").set_total(installs)
        evictions = sum(bank.evict_events for bank in self.banks)
        if evictions:
            registry.counter("tracker_evictions_total").set_total(evictions)
