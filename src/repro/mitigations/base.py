"""Common interface for Rowhammer mitigation schemes.

The memory controller drives every scheme the same way: for each row
activation it calls :meth:`MitigationScheme.access` with the *logical*
(software-visible) row and the current time, and receives back

* the *physical* row the access was routed to (after any indirection),
* extra channel-busy time imposed by mitigative actions (migrations,
  victim refreshes, or rate-limit stalls), and
* the physical rows the mitigation itself activated (so the security
  ledger sees migration traffic too).

Schemes own their tracker and their epoch housekeeping; the controller
only needs to keep calling ``access`` with monotonically non-decreasing
timestamps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dram.refresh import RefreshScheduler
from repro.faults import NULL_INJECTOR
from repro.telemetry import NULL_TELEMETRY
from repro.workloads.trace import iter_chunks


@dataclass
class AccessResult:
    """Outcome of routing one activation through a mitigation scheme."""

    physical_row: int
    lookup_ns: float = 0.0
    busy_ns: float = 0.0
    """Channel time consumed by mitigative action for this access."""
    migrated: bool = False
    evicted: bool = False
    stalled_ns: float = 0.0
    """Delay imposed on the *request itself* (Blockhammer throttling)."""
    extra_activations: Tuple[int, ...] = ()
    """Physical rows the mitigation *wrote* (migration destinations).

    Migration source reads are excluded: they restore the departing
    row's charge, like a refresh, so they are not attack-usable
    activations of that row (the accounting behind Sec. VI-A's
    invariant arithmetic)."""
    refreshed_rows: Tuple[int, ...] = ()
    """Physical rows the mitigation refreshed (victim-refresh schemes)."""
    lookup_outcome: Optional[object] = None


@dataclass
class SchemeStats:
    """Counters every scheme maintains."""

    accesses: int = 0
    migrations: int = 0
    """Mitigative actions performed (quarantines for AQUA, swaps for RRS)."""
    row_moves: int = 0
    """Unit row transfers (one read + one write each)."""
    evictions: int = 0
    victim_refreshes: int = 0
    busy_ns: float = 0.0
    stall_ns: float = 0.0
    epochs: int = 0


class MitigationScheme(abc.ABC):
    """Base class: epoch bookkeeping plus the ``access`` contract."""

    name = "abstract"

    def __init__(self, telemetry=None) -> None:
        self.stats = SchemeStats()
        self.refresh = RefreshScheduler()
        self.current_epoch = 0
        #: Shared observability sink; the null object keeps the
        #: uninstrumented path allocation-free (one attribute load and
        #: branch on ``telemetry.enabled`` per batch).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Last timestamp seen by ``access``/``access_batch``: gives
        #: time-less internal paths (table-row quarantines, tracker
        #: installs) a simulated-time stamp for their events.
        self.now_ns = 0.0
        #: Fault-injection sink (see :mod:`repro.faults`); the null
        #: object keeps un-faulted runs at one attribute load and branch
        #: per hook.  Two sites are handled generically here:
        #: ``refresh_postpone`` (the epoch boundary slips by up to
        #: 8 tREFI, the DDR4 postponement allowance) and
        #: ``tracker_drop`` (an ART entry is lost mid-epoch).
        self.faults = NULL_INJECTOR
        self._postpone_epoch = -1
        self._postpone_until_ns = 0.0
        self.postponed_refreshes = 0
        self.tracker_drops = 0

    def attach_faults(self, injector) -> None:
        """Wire a :class:`~repro.faults.FaultInjector` into the scheme.

        Separate from ``__init__`` so scheme factories built for clean
        runs can be reused by the chaos harness unchanged.  Subclasses
        extend this to thread the injector into owned structures.
        """
        self.faults = injector if injector is not None else NULL_INJECTOR

    @abc.abstractmethod
    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        """Map a logical row to (physical row, lookup ns, outcome)."""

    @abc.abstractmethod
    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        """Perform the scheme's mitigative action for a flagged row."""

    @abc.abstractmethod
    def _observe(self, physical_row: int) -> bool:
        """Feed the tracker; return True when mitigation must fire."""

    def _end_epoch(self, new_epoch: int) -> None:
        """Hook for epoch-boundary housekeeping (tracker reset etc.)."""
        self.current_epoch = new_epoch
        self.stats.epochs += 1

    def _sync_epoch(self, now_ns: float) -> None:
        self.now_ns = now_ns
        epoch = self.refresh.epoch_of(now_ns)
        if epoch != self.current_epoch:
            if self.faults.enabled and self._refresh_postponed(epoch, now_ns):
                return
            self._end_epoch(epoch)

    def _refresh_postponed(self, epoch: int, now_ns: float) -> bool:
        """Fault site ``refresh_postpone``: hold an epoch boundary open.

        DDR4 lets a controller postpone up to 8 refresh commands; the
        injected fault models the worst case of that allowance by
        keeping the previous epoch's tracker state live for 8 tREFI
        past the boundary.  Delaying the ART reset only *over*-counts
        rows (detection is never missed), so this degrades performance,
        not the security invariant.
        """
        if self._postpone_epoch == epoch:
            if now_ns < self._postpone_until_ns:
                return True
            return False
        if self.faults.inject(
            "refresh_postpone", ts_ns=now_ns, scheme=self.name, epoch=epoch
        ):
            self._postpone_epoch = epoch
            self._postpone_until_ns = now_ns + 8 * self.refresh.timing.trefi_ns
            self.postponed_refreshes += 1
            return True
        # Remember the decision so one boundary consumes one draw.
        self._postpone_epoch = epoch
        self._postpone_until_ns = now_ns
        return False

    def _maybe_drop_tracker(self, physical_row: int) -> None:
        """Fault site ``tracker_drop``: lose the ART entry for a row."""
        if self.faults.inject(
            "tracker_drop", ts_ns=self.now_ns,
            scheme=self.name, row=physical_row,
        ):
            tracker = getattr(self, "tracker", None)
            if tracker is not None and tracker.drop(physical_row):
                self.tracker_drops += 1

    def collect_metrics(self, telemetry) -> None:
        """Copy scheme statistics into the metrics registry.

        Registered as a snapshot-time collector so the hot path pays
        nothing; subclasses extend this with their own structures.
        """
        stats = self.stats
        registry = telemetry.registry
        scheme = self.name
        counters = (
            ("scheme_accesses_total", stats.accesses),
            ("scheme_migrations_total", stats.migrations),
            ("scheme_row_moves_total", stats.row_moves),
            ("scheme_evictions_total", stats.evictions),
            ("scheme_victim_refreshes_total", stats.victim_refreshes),
            ("scheme_busy_ns_total", stats.busy_ns),
            ("scheme_stall_ns_total", stats.stall_ns),
            ("scheme_epochs_total", stats.epochs),
        )
        for name, value in counters:
            registry.counter(name).set_total(value, scheme=scheme)
        if self.faults.enabled:
            registry.counter("fault_tracker_drops_total").set_total(
                self.tracker_drops, scheme=scheme
            )
            registry.counter("fault_postponed_refreshes_total").set_total(
                self.postponed_refreshes, scheme=scheme
            )

    def access(self, logical_row: int, now_ns: float) -> AccessResult:
        """Route one activation of ``logical_row`` at time ``now_ns``."""
        self._sync_epoch(now_ns)
        self.stats.accesses += 1
        physical, lookup_ns, outcome = self._translate(logical_row)
        if self.faults.enabled:
            self._maybe_drop_tracker(physical)
        if self._observe(physical):
            result = self._mitigate(logical_row, physical, now_ns)
        else:
            result = AccessResult(physical_row=physical)
        result.lookup_ns = lookup_ns
        result.lookup_outcome = outcome
        self.stats.busy_ns += result.busy_ns
        self.stats.stall_ns += result.stalled_ns
        if self.telemetry.enabled:
            self.telemetry.observe(
                "fpt_lookup_ns", lookup_ns, scheme=self.name
            )
        return result

    # ------------------------------------------------------------ batch path

    def _translate_batch(
        self, logical_row: int, n: int
    ) -> Tuple[int, float, Optional[object]]:
        """Batch translation hook; defaults to a single lookup.

        Schemes with lookup-statistics backends (AQUA's memory-mapped
        tables) override this to weight their counters by ``n``.
        """
        return self._translate(logical_row)

    def _observe_batch(self, physical_row: int, n: int) -> int:
        """Feed ``n`` activations to the tracker; return crossings.

        The default uses the scheme's ``tracker`` attribute when present
        (all tracker-based schemes), else loops over ``_observe``.
        """
        tracker = getattr(self, "tracker", None)
        if tracker is not None:
            return tracker.observe_batch(physical_row, n)
        return sum(1 for _ in range(n) if self._observe(physical_row))

    def access_batch(
        self, logical_row: int, n: int, now_ns: float
    ) -> AccessResult:
        """Route ``n`` back-to-back activations of ``logical_row``.

        Equivalent to ``n`` calls to :meth:`access` up to intra-batch
        interleaving (the performance sweeps use batches far smaller
        than any mitigation threshold, so at most one crossing occurs
        per batch in practice).
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        self._sync_epoch(now_ns)
        self.stats.accesses += n
        physical, lookup_ns, outcome = self._translate_batch(logical_row, n)
        if self.faults.enabled:
            self._maybe_drop_tracker(physical)
        crossings = self._observe_batch(physical, n)
        if crossings == 0:
            result = AccessResult(physical_row=physical)
        else:
            busy = 0.0
            stall = 0.0
            extras: list = []
            refreshed: list = []
            evicted = False
            for _ in range(crossings):
                step = self._mitigate(logical_row, physical, now_ns)
                busy += step.busy_ns
                stall += step.stalled_ns
                extras.extend(step.extra_activations)
                refreshed.extend(step.refreshed_rows)
                evicted = evicted or step.evicted
                physical = step.physical_row
            result = AccessResult(
                physical_row=physical,
                busy_ns=busy,
                stalled_ns=stall,
                migrated=True,
                evicted=evicted,
                extra_activations=tuple(extras),
                refreshed_rows=tuple(refreshed),
            )
        result.lookup_ns = lookup_ns
        result.lookup_outcome = outcome
        self.stats.busy_ns += result.busy_ns
        self.stats.stall_ns += result.stalled_ns
        if self.telemetry.enabled:
            self.telemetry.observe(
                "fpt_lookup_ns", lookup_ns, scheme=self.name
            )
        return result

    # ------------------------------------------------------------ epoch path

    def access_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """Route one epoch's chunked activation stream.

        ``rows``/``counts`` are the trace's parallel int64 arrays; chunk
        ``i`` is stamped ``start_ns + dt_ns * (activations before it)``,
        exactly as the simulator's historical per-chunk loop did.

        This scalar loop *defines* the semantics: subclasses that
        override it with vectorized fast paths must produce bit-identical
        scheme state (the equivalence suite enforces this).  They must
        fall back to this loop whenever faults are attached, since fault
        sites draw per chunk.  Under telemetry an override either offers
        the tracer and registry exactly what this loop offers (AQUA's
        fused loop, DESIGN.md §11) or falls back here too.
        """
        access_batch = self.access_batch
        now = start_ns
        for row, count in iter_chunks(rows, counts):
            access_batch(row, count, now)
            now += count * dt_ns

    def _scalar_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """The scalar reference loop, callable from overrides as a fallback."""
        MitigationScheme.access_epoch(self, rows, counts, start_ns, dt_ns)

    def _epoch_fast_path_ok(self, rows: np.ndarray, counts: np.ndarray) -> bool:
        """Whether a vectorized epoch override may engage.

        Faults hook individual chunk events, and the scalar path reports
        bounds/validation errors at the exact offending chunk;
        vectorized paths bail to the scalar loop in all those cases.
        Telemetry is the override's own call: one that cannot replay
        the scalar loop's events and metrics also checks
        ``self.telemetry.enabled``.
        """
        if self.faults.enabled:
            return False
        if len(rows) == 0:
            return False
        if int(counts.min()) < 1:
            return False
        return 0 <= int(rows.min()) and int(rows.max()) < self.visible_rows

    def table_dram_busy_ns(self) -> float:
        """Channel time consumed by in-DRAM mapping-table accesses."""
        return 0.0

    @property
    @abc.abstractmethod
    def visible_rows(self) -> int:
        """Number of software-visible rows under this scheme."""

    def sram_bytes(self) -> int:
        """SRAM footprint of the scheme's mapping structures (not tracker)."""
        return 0
