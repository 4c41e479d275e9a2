"""Tracker interface shared by every ART implementation.

The tracker contract, from the paper's security argument (Sec. VI-A,
property P1): the tracker must flag a row every time it crosses a
multiple of the *effective threshold* ``T = T_RH / 2`` within one epoch,
so that across the at-most-two tracking epochs that span any refresh
window, a row never reaches ``T_RH`` activations without a mitigation.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List

import numpy as np

from repro.telemetry import NULL_TELEMETRY


def _zero_clock() -> float:
    """Default simulated-time source before telemetry is attached."""
    return 0.0


def segmented_stream_crossings(
    rows: np.ndarray,
    counts: np.ndarray,
    base: Dict[int, int],
    threshold: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-chunk threshold crossings of an exact-counting stream.

    For exact per-row counters the crossings of chunk ``i`` depend only
    on the running total of ``rows[i]`` up to that chunk (cross-row
    order is irrelevant), so the whole stream reduces to a segmented
    cumulative sum: group chunks by row (stable argsort), accumulate
    within each group on top of ``base[row]``, and count the threshold
    multiples stepped over per chunk.

    Returns ``(crossings, unique_rows, unique_totals)`` where
    ``crossings[i]`` equals what ``observe_batch(rows[i], counts[i])``
    would have returned in stream order.
    """
    n = len(rows)
    uniq, inverse = np.unique(rows, return_inverse=True)
    starts = np.fromiter(
        (base[row] for row in uniq.tolist()), dtype=np.int64, count=len(uniq)
    )
    order = np.argsort(inverse, kind="stable")
    sorted_counts = counts[order].astype(np.int64)
    sorted_inverse = inverse[order]
    cum = np.cumsum(sorted_counts)
    seg_first = np.searchsorted(sorted_inverse, np.arange(len(uniq)))
    seg_offset = np.zeros(len(uniq), dtype=np.int64)
    seg_offset[1:] = cum[seg_first[1:] - 1]
    after = cum - seg_offset[sorted_inverse] + starts[sorted_inverse]
    before = after - sorted_counts
    crossings_sorted = after // threshold - before // threshold
    crossings = np.zeros(n, dtype=np.int64)
    crossings[order] = crossings_sorted
    totals = np.bincount(
        inverse, weights=counts, minlength=len(uniq)
    ).astype(np.int64)
    return crossings, uniq, totals


class AggressorTracker(abc.ABC):
    """Abstract aggressor-row tracker (the ART)."""

    #: Running statistics: activations observed and threshold crossings
    #: reported.  Leaf trackers count them; :class:`PerBankTracker`
    #: derives them from its banks.
    observations = 0
    triggers = 0

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._telemetry = NULL_TELEMETRY
        self._clock: Callable[[], float] = _zero_clock

    def attach_telemetry(
        self, telemetry, clock: Callable[[], float]
    ) -> None:
        """Wire the owning scheme's telemetry and simulated-time clock.

        Trackers have no notion of time; ``clock`` returns the scheme's
        last-seen access timestamp so install/evict events line up with
        the rest of the trace.
        """
        self._telemetry = telemetry
        self._clock = clock

    def collect_metrics(self, telemetry, **labels) -> None:
        """Snapshot-time export of the tracker's running statistics."""
        registry = telemetry.registry
        registry.counter("tracker_observations_total").set_total(
            self.observations, **labels
        )
        registry.counter("tracker_triggers_total").set_total(
            self.triggers, **labels
        )

    @abc.abstractmethod
    def observe(self, row_id: int) -> bool:
        """Record one activation of *physical* row ``row_id``.

        Returns ``True`` if this activation makes the row's (estimated)
        count reach a multiple of the effective threshold, i.e. the
        mitigation must quarantine/swap the row now.
        """

    def observe_batch(self, row_id: int, count: int) -> int:
        """Record ``count`` back-to-back activations of ``row_id``.

        Returns the number of threshold crossings.  The default loops
        over :meth:`observe`; subclasses override with O(1) batch math
        for the performance sweeps.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return sum(1 for _ in range(count) if self.observe(row_id))

    def observe_epoch(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Record a whole epoch's (row, count) chunk stream at once.

        Returns the per-chunk crossings mask (int64, one entry per
        chunk): element ``i`` is the number of threshold crossings chunk
        ``i`` caused, exactly as ``observe_batch(rows[i], counts[i])``
        would have returned when called in stream order.  The default
        loops over :meth:`observe_batch`; subclasses override with
        array kernels where order permits.
        """
        if len(rows) != len(counts):
            raise ValueError("rows and counts must align")
        out = np.zeros(len(rows), dtype=np.int64)
        observe_batch = self.observe_batch
        for i, (row, count) in enumerate(
            zip(rows.tolist(), counts.tolist())
        ):
            crossings = observe_batch(row, count)
            if crossings:
                out[i] = crossings
        return out

    def epoch_cannot_cross(
        self, unique_rows: np.ndarray, unique_totals: np.ndarray
    ) -> bool:
        """Whether an epoch with these per-row totals provably yields
        zero threshold crossings against the tracker's *current* state.

        Used by vectorized scheme paths to settle entire eventless
        epochs in bulk accounting.  Must err on the side of ``False``:
        a ``True`` here licenses skipping per-chunk tracker simulation
        for the epoch (internal estimator state may then diverge until
        the next epoch reset, but observable behaviour may not).
        The conservative default refuses.
        """
        return False

    def sparse_feed_mask(
        self,
        unique_rows: np.ndarray,
        unique_totals: np.ndarray,
        reserve: int = 0,
    ) -> np.ndarray:
        """Which distinct rows must stream through the per-chunk kernel.

        Returns a bool mask over ``unique_rows``: ``True`` rows must be
        fed chunk-by-chunk (they may cross, or their presence affects
        other rows' estimates); ``False`` rows provably produce zero
        crossings all epoch even if *omitted* from the stream, so a
        scheme may skip their kernel calls and bulk-settle them via
        :meth:`settle_epoch_counters`.  ``reserve`` is the caller's
        upper bound on extra distinct rows (quarantine destinations,
        table rows) that may be observed this epoch beyond
        ``unique_rows`` -- capacity-sensitive trackers must stay safe
        under that many additional installs.  The conservative default
        feeds everything.
        """
        return np.ones(len(unique_rows), dtype=bool)

    def settle_epoch_counters(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> None:
        """Advance observation statistics for a bulk-settled epoch.

        Only valid for streams :meth:`epoch_cannot_cross` or
        :meth:`sparse_feed_mask` cleared for settling (zero crossings,
        so ``triggers`` is untouched).
        """
        self.observations += int(counts.sum())

    @abc.abstractmethod
    def estimate(self, row_id: int) -> int:
        """Current estimated activation count for ``row_id`` (0 if untracked)."""

    def drop(self, row_id: int) -> bool:
        """Discard the tracker's state for ``row_id`` (fault injection).

        Models a lost/corrupted ART entry: the row's activation history
        vanishes and counting restarts from zero, the tracker-side fault
        the chaos harness injects via the ``tracker_drop`` site.  Returns
        whether an entry existed.  The default (for trackers without
        per-row state to drop) is a no-op.
        """
        return False

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all counts at an epoch boundary."""

    def note_trigger(self) -> None:
        """Bump the trigger statistic (called by subclasses)."""
        self.triggers += 1


class PerBankTracker(AggressorTracker):
    """Compose one tracker instance per bank into a rank-level ART.

    Graphene (and hence RRS and AQUA) provision the Misra-Gries summary
    per bank, because the activation budget ``ACTmax`` is a per-bank
    bound.  ``bank_of`` maps a physical row id to its index in
    ``banks``, and an integer array of row ids elementwise (epoch
    planning partitions a whole epoch's rows in one call).  The rank
    tracker keeps no state of its own: its statistics are the sums over
    its banks, so feeding ``banks[bank_of(row)]`` directly is the whole
    effect of a rank-level call.
    """

    def __init__(
        self,
        threshold: int,
        num_banks: int,
        bank_of: Callable[[int], int],
        factory: Callable[[int], AggressorTracker],
    ) -> None:
        super().__init__(threshold)
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        self.bank_of = bank_of
        self.banks: List[AggressorTracker] = [
            factory(threshold) for _ in range(num_banks)
        ]

    @property
    def observations(self) -> int:
        return sum(bank.observations for bank in self.banks)

    @property
    def triggers(self) -> int:
        return sum(bank.triggers for bank in self.banks)

    def attach_telemetry(
        self, telemetry, clock: Callable[[], float]
    ) -> None:
        super().attach_telemetry(telemetry, clock)
        for bank in self.banks:
            bank.attach_telemetry(telemetry, clock)

    def observe(self, row_id: int) -> bool:
        return self.banks[self.bank_of(row_id)].observe(row_id)

    def observe_batch(self, row_id: int, count: int) -> int:
        return self.banks[self.bank_of(row_id)].observe_batch(row_id, count)

    def _by_bank(self, rows: np.ndarray):
        """Yield ``(bank, indices)`` for each bank that ``rows`` touch."""
        # A constant map (one bank) returns a scalar: broadcast it.
        bank_ids = np.broadcast_to(self.bank_of(rows), rows.shape)
        for i, bank in enumerate(self.banks):
            indices = np.flatnonzero(bank_ids == i)
            if len(indices):
                yield bank, indices

    def epoch_cannot_cross(
        self, unique_rows: np.ndarray, unique_totals: np.ndarray
    ) -> bool:
        """Partition the rows by bank and ask each bank tracker."""
        return all(
            bank.epoch_cannot_cross(unique_rows[idx], unique_totals[idx])
            for bank, idx in self._by_bank(unique_rows)
        )

    def sparse_feed_mask(
        self,
        unique_rows: np.ndarray,
        unique_totals: np.ndarray,
        reserve: int = 0,
    ) -> np.ndarray:
        """Partition by bank and delegate; ``reserve`` applies per bank."""
        out = np.ones(len(unique_rows), dtype=bool)
        for bank, idx in self._by_bank(unique_rows):
            out[idx] = bank.sparse_feed_mask(
                unique_rows[idx], unique_totals[idx], reserve
            )
        return out

    def settle_epoch_counters(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> None:
        """Settle each bank's share of a bulk-settled stream."""
        for bank, idx in self._by_bank(rows):
            bank.settle_epoch_counters(rows[idx], counts[idx])

    def estimate(self, row_id: int) -> int:
        return self.banks[self.bank_of(row_id)].estimate(row_id)

    def drop(self, row_id: int) -> bool:
        return self.banks[self.bank_of(row_id)].drop(row_id)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
