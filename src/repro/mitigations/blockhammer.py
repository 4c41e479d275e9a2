"""Blockhammer baseline: rate-limiting flagged rows (Yaglikci et al., HPCA 2021).

Blockhammer prevents Rowhammer without migrations or refreshes by
*throttling*: once a row's activation count crosses a blacklisting
threshold, further activations of that row are delayed so it cannot
exceed its activation quota within the refresh window.

The AQUA paper evaluates Blockhammer with an ideal tracker and a
blacklisting threshold of 256 (Sec. VII-B) and shows its pathology at
low thresholds: a row limited to 500 ACTs per 64 ms may only activate
once every 128 us, so a benign-but-hot pattern (e.g. two conflicting
rows alternating, 100 ns per round unthrottled) suffers a worst-case
slowdown of 64 ms / 500 rounds = 1280x.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry, DEFAULT_GEOMETRY
from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.mitigations.base import AccessResult, MitigationScheme
from repro.trackers import ExactTracker
from repro.trackers.cbf import RowBlocker


_ESTIMATORS = ("exact", "cbf")


class Blockhammer(MitigationScheme):
    """Throttle rows beyond the blacklist threshold to a safe ACT rate.

    ``estimator`` selects the activation-count source: ``"exact"`` is
    the idealised tracker the AQUA paper evaluates with (Sec. VII-B);
    ``"cbf"`` is Blockhammer's own dual counting-bloom-filter
    RowBlocker, which never under-counts but may over-throttle on hash
    aliasing.
    """

    name = "blockhammer"

    def __init__(
        self,
        rowhammer_threshold: int = 1000,
        geometry: DramGeometry = DEFAULT_GEOMETRY,
        timing: DDR4Timing = DDR4_2400,
        blacklist_threshold: int = 256,
        estimator: str = "exact",
        cbf_counters: int = 8192,
        telemetry=None,
    ) -> None:
        super().__init__(telemetry)
        if blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be >= 1")
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")
        self.geometry = geometry
        self.timing = timing
        self.rowhammer_threshold = rowhammer_threshold
        self.blacklist_threshold = blacklist_threshold
        self.estimator = estimator
        #: Per-row activation quota per refresh window (T_RH / 2, so the
        #: quota holds even across a tracker reset boundary).
        self.quota = max(1, rowhammer_threshold // 2)
        #: Minimum spacing between ACTs of a blacklisted row.
        self.min_interval_ns = timing.trefw_ns / self.quota
        self.tracker = ExactTracker(blacklist_threshold)
        self.row_blocker = (
            RowBlocker(counters=cbf_counters, timing=timing)
            if estimator == "cbf"
            else None
        )
        self._now_ns = 0.0
        self._next_allowed_ns: Dict[int, float] = {}
        self._row_stall_ns: Dict[int, float] = {}
        self.throttled_accesses = 0

    @property
    def visible_rows(self) -> int:
        return self.geometry.rows_per_rank

    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        if not 0 <= logical_row < self.visible_rows:
            raise ValueError(f"row {logical_row} outside memory")
        return logical_row, 0.0, None

    def _sync_epoch(self, now_ns: float) -> None:
        self._now_ns = now_ns
        super()._sync_epoch(now_ns)

    def _estimate_after(self, physical_row: int, amount: int = 1) -> int:
        """Count ``amount`` ACTs and return the post-count estimate."""
        self.tracker.observe_batch(physical_row, amount)
        if self.row_blocker is not None:
            return self.row_blocker.observe(
                physical_row, self._now_ns, amount
            )
        return self.tracker.estimate(physical_row)

    def _observe(self, physical_row: int) -> bool:
        # Blacklisting engages at the blacklist threshold and stays
        # engaged for the epoch.
        return self._estimate_after(physical_row) >= self.blacklist_threshold

    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        next_allowed = self._next_allowed_ns.get(physical_row, 0.0)
        stall = max(0.0, next_allowed - now_ns)
        release = max(now_ns, next_allowed) + self.min_interval_ns
        self._next_allowed_ns[physical_row] = release
        if stall > 0:
            self.throttled_accesses += 1
            self._row_stall_ns[physical_row] = (
                self._row_stall_ns.get(physical_row, 0.0) + stall
            )
            if self.telemetry.enabled:
                self.telemetry.event(
                    "throttle", now_ns,
                    scheme=self.name, row=physical_row, stall_ns=stall,
                )
                self.telemetry.inc("throttles_total", scheme=self.name)
        return AccessResult(physical_row=physical_row, stalled_ns=stall)

    def access_batch(self, logical_row: int, n: int, now_ns: float):
        """Batched throttling: every blacklisted ACT pays the interval.

        Once a row is blacklisted its activations are spaced at
        ``min_interval_ns``; for a batch of ``n`` activations the added
        delay relative to unthrottled issue is one interval per
        throttled activation.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        self._sync_epoch(now_ns)
        self.stats.accesses += n
        physical, lookup_ns, outcome = self._translate(logical_row)
        if self.faults.enabled:
            self._maybe_drop_tracker(physical)
        after = self._estimate_after(physical, n)
        before = after - n
        throttled = max(0, after - max(before, self.blacklist_threshold))
        stall = throttled * self.min_interval_ns
        if throttled:
            self.throttled_accesses += throttled
            self._row_stall_ns[physical] = (
                self._row_stall_ns.get(physical, 0.0) + stall
            )
            if self.telemetry.enabled:
                self.telemetry.event(
                    "throttle", now_ns,
                    scheme=self.name, row=physical, stall_ns=stall,
                    batched=throttled,
                )
                self.telemetry.inc(
                    "throttles_total", throttled, scheme=self.name
                )
        result = AccessResult(
            physical_row=physical, lookup_ns=lookup_ns, stalled_ns=stall
        )
        result.lookup_outcome = outcome
        self.stats.stall_ns += stall
        return result

    def access_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """Vectorized epoch feed for the exact estimator.

        With exact per-row counters the post-chunk estimate is a
        segmented running sum, so every chunk's throttle count
        ``max(0, after - max(before, B))`` -- equivalently
        ``clip(after - B, 0, n)`` -- vectorizes; only the (sparse)
        throttled chunks are walked in stream order to preserve the
        float accumulation of ``stats.stall_ns`` and the per-row stall
        ledger.  The CBF RowBlocker's estimates are rotation- and
        order-dependent, so that estimator keeps the scalar loop.
        """
        if (
            self.row_blocker is not None
            or self.telemetry.enabled
            or not self._epoch_fast_path_ok(rows, counts)
        ):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        total = int(counts.sum())
        last_now = start_ns + dt_ns * (total - int(counts[-1]))
        epoch_of = self.refresh.epoch_of
        if epoch_of(start_ns) != epoch_of(last_now):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        self._sync_epoch(start_ns)
        stats = self.stats
        stats.accesses += total
        # Post-chunk estimates: carry-in from the tracker plus the
        # stream's segmented cumulative sum (read the carry-ins before
        # the tracker consumes the epoch below).
        estimate = self.tracker.estimate
        sorted_idx = np.argsort(rows, kind="stable")
        sorted_rows = rows[sorted_idx]
        sorted_counts = counts[sorted_idx]
        cum = np.cumsum(sorted_counts)
        seg_starts = np.flatnonzero(
            np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
        )
        base = np.fromiter(
            (estimate(row) for row in sorted_rows[seg_starts].tolist()),
            dtype=np.int64,
            count=len(seg_starts),
        )
        seg_lengths = np.diff(np.append(seg_starts, len(sorted_rows)))
        carry = np.repeat(
            base - (cum[seg_starts] - sorted_counts[seg_starts]),
            seg_lengths,
        )
        after = np.empty(len(rows), dtype=np.int64)
        after[sorted_idx] = cum + carry
        self.tracker.observe_epoch(rows, counts)
        throttled = np.minimum(
            counts, np.maximum(after - self.blacklist_threshold, 0)
        )
        hot = np.flatnonzero(throttled)
        if len(hot):
            interval = self.min_interval_ns
            row_stall = self._row_stall_ns
            for row, n_throttled in zip(
                rows[hot].tolist(), throttled[hot].tolist()
            ):
                stall = n_throttled * interval
                self.throttled_accesses += n_throttled
                row_stall[row] = row_stall.get(row, 0.0) + stall
                stats.stall_ns += stall
        self._now_ns = last_now
        self.now_ns = last_now

    def epoch_peak_row_stall_ns(self) -> float:
        """Largest cumulative stall imposed on any single row this epoch.

        Rows throttle independently (per-row quotas), so a workload's
        completion time stretches by roughly the worst row's serialised
        stall, not the sum across rows.
        """
        return max(self._row_stall_ns.values(), default=0.0)

    def _end_epoch(self, new_epoch: int) -> None:
        super()._end_epoch(new_epoch)
        self.tracker.reset()
        self._next_allowed_ns.clear()
        self._row_stall_ns.clear()

    def collect_metrics(self, telemetry) -> None:
        """Snapshot-time export of throttling pressure."""
        super().collect_metrics(telemetry)
        registry = telemetry.registry
        registry.counter("throttled_accesses_total").set_total(
            self.throttled_accesses, scheme=self.name
        )
        registry.gauge("blacklisted_rows").set(
            len(self._next_allowed_ns), scheme=self.name
        )
        registry.gauge("epoch_peak_row_stall_ns").set(
            self.epoch_peak_row_stall_ns(), scheme=self.name
        )
        self.tracker.collect_metrics(telemetry, scheme=self.name)

    def worst_case_slowdown(self) -> float:
        """Analytical worst case (Sec. VII-B).

        A two-row conflict pattern completes a round in ~100 ns
        unthrottled (two ACTs at tRC but overlapping precharge), but
        only ``quota`` rounds fit in the window once blacklisted.
        """
        unthrottled_rounds = self.timing.trefw_ns / (100.0)
        return unthrottled_rounds / self.quota
