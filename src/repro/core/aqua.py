"""AQUA: the quarantine-based Rowhammer mitigation (Sec. IV-V).

``AquaMitigation`` wires together every AQUA structure:

* an **ART** (aggressor-row tracker, default per-bank Misra-Gries)
  indexed by the *physical* row address after FPT translation
  (security property P3),
* the **RQA** circular buffer with its RPT, sized by Equation 3,
* a **table backend** -- SRAM FPT/RPT (Sec. IV) or memory-mapped tables
  with bloom filter + FPT-Cache (Sec. V),
* a **row-content store** (optional) proving migrations move data,
* DRAM **energy counters** for the power analysis (Sec. V-H).

The flow per activation (Fig. 4): translate through the FPT, route to
the original or quarantined location, feed the tracker, and on a
threshold crossing quarantine the row at the RQA head -- first draining
any stale row occupying that slot back to its home (lazy drain).
Rows storing the in-DRAM tables are themselves protected: their FPT
entries are pinned in SRAM and they are quarantined like any other row
if hammered (the PTHammer defense of Sec. VI-B).
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import floordiv
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import AquaConfig
from repro.core.migration import MigrationCosts, publish_costs
from repro.core.memtables import (
    LookupOutcome,
    MemoryMappedTables,
    SramTables,
    TableBackend,
)
from repro.core.quarantine import RowQuarantineArea, RqaExhaustedError
from repro.dram.data import RowDataStore
from repro.dram.power import DramEnergyCounters
from repro.errors import FaultExhaustedError
from repro.mitigations.base import AccessResult, MitigationScheme
from repro.trackers import (
    AggressorTracker,
    ExactTracker,
    HydraTracker,
    MisraGriesTracker,
    PerBankTracker,
)


def _build_tracker(config: AquaConfig) -> AggressorTracker:
    """Instantiate the ART named by the config."""
    threshold = config.effective_threshold
    if config.tracker == "misra-gries":
        banks = config.geometry.banks_per_rank
        return MisraGriesTracker(
            threshold,
            num_banks=banks,
            bank_of=lambda row: row % banks,
            entries_per_bank=config.tracker_entries_per_bank,
        )
    if config.tracker == "hydra":
        return HydraTracker(threshold)
    return ExactTracker(threshold)


class AquaMitigation(MitigationScheme):
    """The AQUA scheme, pluggable into the memory-controller simulator."""

    name = "aqua"

    def __init__(
        self,
        config: Optional[AquaConfig] = None,
        telemetry=None,
        fault_injector=None,
    ) -> None:
        super().__init__(telemetry)
        self.config = config if config is not None else AquaConfig()
        cfg = self.config
        #: ``config.visible_rows`` re-derives the RQA/table reservation
        #: chain on every read; the access path validates every chunk
        #: against it, so cache the (immutable) value once.
        self._visible_rows = cfg.visible_rows
        self.rqa = RowQuarantineArea(
            cfg.derived_rqa_slots,
            telemetry=self.telemetry,
            clock=lambda: self.now_ns,
        )
        self.rqa_base = cfg.rqa_base_row
        self.tracker = _build_tracker(cfg)
        self.tables: TableBackend
        if cfg.table_mode == "memory-mapped":
            self.tables = MemoryMappedTables(
                total_rows=cfg.geometry.rows_per_rank,
                rqa_slots=cfg.derived_rqa_slots,
                bloom_group_size=cfg.bloom_group_size,
                fpt_cache_entries=cfg.fpt_cache_entries,
                table_base_row=cfg.table_base_row,
                timing=cfg.timing,
                row_bytes=cfg.geometry.row_bytes,
            )
        else:
            self.tables = SramTables(
                rqa_slots=cfg.derived_rqa_slots,
                fpt_capacity=cfg.derived_fpt_capacity,
            )
        self.data = RowDataStore() if cfg.track_data else None
        #: Upper bound on distinct *extra* physical rows (per bank) the
        #: tracker may observe in one epoch beyond the trace's own rows:
        #: quarantine destinations land in the RQA range and table-row
        #: observations in the FPT range, so an arithmetic-progression
        #: count over each range bounds them.  Feeds the tracker's
        #: sparse-feed capacity check (DESIGN.md §11).
        banks = cfg.geometry.banks_per_rank
        if isinstance(self.tables, MemoryMappedTables) and (
            self.tables.table_base_row is not None
        ):
            n_table_rows = (
                self.tables.table_row_of(cfg.geometry.rows_per_rank - 1)
                - self.tables.table_base_row
                + 1
            )
        else:
            n_table_rows = 0
        self._tracker_reserve = (
            n_table_rows // banks + 1 + cfg.derived_rqa_slots // banks + 1
        )
        self.energy = DramEnergyCounters()
        #: SRAM-pinned FPT entries for the physical rows holding the
        #: in-DRAM tables (avoids recursive lookups, Sec. VI-B).
        self._pinned_fpt: Dict[int, int] = {}
        self._migration_ns = cfg.timing.migration_ns(cfg.geometry.row_bytes)
        self._costs = MigrationCosts.for_row(cfg.geometry.row_bytes, cfg.timing)
        self.internal_migrations = 0
        self.table_row_quarantines = 0
        #: Degradation bookkeeping (DESIGN.md §8): rows the scheme could
        #: not quarantine and rate-limited instead, interrupted-transfer
        #: retries, and migrations abandoned after the retry budget.
        self.throttle_fallbacks = 0
        self.migration_retries = 0
        self.aborted_migrations = 0
        #: Blockhammer-style spacing for the throttle fallback: a row
        #: limited to one ACT per interval cannot reach the effective
        #: threshold within the refresh window.
        self._throttle_interval_ns = (
            cfg.timing.trefw_ns / cfg.effective_threshold
        )
        self._row_stall_ns: Dict[int, float] = {}
        if fault_injector is not None:
            self.attach_faults(fault_injector)
        if self.telemetry.enabled:
            self.tracker.attach_telemetry(
                self.telemetry, lambda: self.now_ns
            )
            publish_costs(
                self.telemetry,
                MigrationCosts.for_row(cfg.geometry.row_bytes, cfg.timing),
                scheme=self.name,
            )

    def attach_faults(self, injector) -> None:
        """Thread the injector into the structures with their own sites."""
        super().attach_faults(injector)
        if isinstance(self.tables, MemoryMappedTables):
            # SRAM tables have no cache to fault; only the Sec. V
            # filter chain carries the fpt_cache_* sites.
            self.tables.faults = self.faults
            self.tables.clock = lambda: self.now_ns

    # ------------------------------------------------------------ scheme API

    @property
    def visible_rows(self) -> int:
        return self._visible_rows

    def sram_bytes(self) -> int:
        """Mapping-structure SRAM (tables + copy-buffer; Sec. V-G)."""
        copy_buffer = self.config.geometry.row_bytes
        pinned = 512 + 32 if self.config.table_mode == "memory-mapped" else 0
        return self.tables.sram_bytes() + copy_buffer + pinned

    def _validate_row(self, logical_row: int) -> None:
        if not 0 <= logical_row < self.visible_rows:
            raise ValueError(
                f"logical row {logical_row} outside visible space of "
                f"{self.visible_rows} rows"
            )

    def _resolve(self, logical_row, lookup) -> Tuple[int, float, Optional[object]]:
        if lookup.table_row is not None and lookup.dram_accesses > 0:
            # The lookup itself touched an in-DRAM table row: those
            # activations must be visible to the tracker too (PTHammer
            # defense), via the row's SRAM-pinned mapping.
            self._observe_table_row(lookup.table_row, lookup.dram_accesses)
        if lookup.slot is not None:
            return self.rqa_base + lookup.slot, lookup.latency_ns, lookup.outcome
        return logical_row, lookup.latency_ns, lookup.outcome

    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        self._validate_row(logical_row)
        return self._resolve(logical_row, self.tables.lookup(logical_row))

    def _translate_batch(
        self, logical_row: int, n: int
    ) -> Tuple[int, float, Optional[object]]:
        self._validate_row(logical_row)
        return self._resolve(logical_row, self.tables.lookup_batch(logical_row, n))

    def _observe(self, physical_row: int) -> bool:
        return self.tracker.observe(physical_row)

    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        return self._quarantine(logical_row, physical_row, now_ns)

    def _end_epoch(self, new_epoch: int) -> None:
        super()._end_epoch(new_epoch)
        # The ART resets every epoch; the FPT/RPT drain lazily (Sec. IV-A).
        self.tracker.reset()
        self._row_stall_ns.clear()

    def epoch_peak_row_stall_ns(self) -> float:
        """Largest cumulative throttle stall any row saw this epoch.

        Mirrors Blockhammer's fairness probe so the simulator's
        per-epoch slowdown accounting sees the degraded path too.
        """
        return max(self._row_stall_ns.values(), default=0.0)

    # ------------------------------------------------------------- epoch path

    def access_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """Vectorized epoch feed; exact-equivalent to the scalar loop.

        Two regimes (DESIGN.md §11):

        * **Eventless skip** -- when no row is quarantined, no table row
          is pinned, and the tracker proves the epoch's per-row totals
          cannot cross the threshold, every lookup is bloom-filtered
          identity and every observation is crossing-free, so the whole
          epoch settles as bulk counter arithmetic.
        * **Fused loop** -- otherwise, a single Python loop over the
          chunk arrays feeds each chunk to its tracker bank.  Rows
          whose bloom group (memory-mapped) or FPT entry (SRAM) cannot
          be mapped skip the translation machinery entirely and settle
          their lookup counters in bulk at epoch end; only chunks that
          may be quarantined -- or that the kernel flags (spurious
          installs) -- take the full translate/quarantine path.

        Under telemetry only the fused loop runs, and it offers the
        tracer and registry what the scalar loop offers: every chunk
        reaches its bank (no skip, no sparse-feed omission) with
        ``now_ns`` at the chunk's timestamp, and the per-chunk
        ``fpt_lookup_ns`` observations settle in chunk order at epoch
        end.
        """
        if not self._epoch_fast_path_ok(rows, counts):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        total = int(counts.sum())
        last_now = start_ns + dt_ns * (total - int(counts[-1]))
        epoch_of = self.refresh.epoch_of
        if epoch_of(start_ns) != epoch_of(last_now):
            # The chunk timestamps straddle a refresh boundary (only
            # possible with mismatched timing configs): the scalar
            # loop's per-chunk epoch sync is then load-bearing.
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        self._sync_epoch(start_ns)
        tables = self.tables
        tracker = self.tracker
        stats = self.stats
        mm = isinstance(tables, MemoryMappedTables)
        traced = self.telemetry.enabled
        if traced:
            # A row left out of the stream would never emit its
            # ``tracker_install``: feed every chunk.
            feed = repeat(True)
            cold_ns = tables.BLOOM_NS if mm else tables.LOOKUP_NS
            lookup_ns = array("d")
        else:
            uniq, inverse = np.unique(rows, return_inverse=True)
            totals = np.bincount(
                inverse, weights=counts, minlength=len(uniq)
            ).astype(np.int64)
            mapped = len(tables.dram_fpt) if mm else len(tables.fpt)
            if mapped == 0 and not self._pinned_fpt:
                if tracker.epoch_cannot_cross(uniq, totals):
                    stats.accesses += total
                    tracker.settle_epoch_counters(rows, counts)
                    if mm:
                        tables.outcome_counts[
                            LookupOutcome.BLOOM_FILTERED
                        ] += total
                        tables.bloom.queries += total
                        tables.bloom.filtered += total
                    else:
                        tables.fpt.lookups += total
                    self.now_ns = last_now
                    return
            feed = tracker.sparse_feed_mask(
                uniq, totals, self._tracker_reserve
            )[inverse].tolist()
        # Per-bank dispatch: the loop feeds each chunk straight to its
        # bank, indexed by the modulo bank map ``_build_tracker`` gave
        # the tracker; a tracker without banks is one bank.
        if isinstance(tracker, PerBankTracker):
            observe = [bank.observe_batch for bank in tracker.banks]
        else:
            observe = [tracker.observe_batch]
        nb = len(observe)
        rows_l = rows.tolist()
        counts_l = counts.tolist()
        if mm:
            group_size = tables.bloom.group_size
            # Bloom-positive groups are exactly the groups a lookup
            # would not filter.  Grow-only within the epoch -- releases
            # only ever turn groups negative, which merely sends their
            # rows down the (still exact) full path.
            dirty = set(tables.bloom.positive_groups())
            keys = map(floordiv, rows_l, repeat(group_size))
        else:
            group_size = 0
            dirty = {row for row, _ in tables.fpt.items()}
            keys = rows_l
        translate = self._translate_batch
        quarantine = self._quarantine
        now = start_ns
        cold_acts = 0
        settle_rows: list = []
        settle_counts: list = []
        for row, cnt, key, fd in zip(rows_l, counts_l, keys, feed):
            if key in dirty:
                self.now_ns = now
                stats.accesses += cnt
                physical, latency, _ = translate(row, cnt)
                if traced:
                    lookup_ns.append(latency)
                crossings = observe[physical % nb](physical, cnt)
            elif fd:
                # Provably unmapped: identity translation whose only
                # effect is commutative lookup counters, settled in
                # bulk below.  The tracker still sees the chunk.
                stats.accesses += cnt
                if traced:
                    # The bank stamps its events with ``now_ns``.
                    self.now_ns = now
                    lookup_ns.append(cold_ns)
                crossings = observe[row % nb](row, cnt)
                if crossings:
                    # Rare spurious install: pay the (bloom-filtered)
                    # lookup now instead of in the bulk settle, then
                    # mitigate exactly as the scalar path would.
                    self.now_ns = now
                    physical, latency, _ = translate(row, cnt)
                    if traced:
                        lookup_ns[-1] = latency
                else:
                    cold_acts += cnt
                    now += cnt * dt_ns
                    continue
            else:
                # Unmapped *and* settle-safe: the tracker proved this
                # row cannot cross and that omitting it cannot perturb
                # any other row, so the chunk is pure bulk accounting.
                stats.accesses += cnt
                cold_acts += cnt
                settle_rows.append(row)
                settle_counts.append(cnt)
                now += cnt * dt_ns
                continue
            if crossings:
                busy = 0.0
                stall = 0.0
                for _ in range(crossings):
                    step = quarantine(row, physical, now)
                    busy += step.busy_ns
                    stall += step.stalled_ns
                    physical = step.physical_row
                stats.busy_ns += busy
                stats.stall_ns += stall
                dirty.add(row // group_size if mm else row)
            now += cnt * dt_ns
        if settle_rows:
            tracker.settle_epoch_counters(
                np.asarray(settle_rows, dtype=np.int64),
                np.asarray(settle_counts, dtype=np.int64),
            )
        if cold_acts:
            if mm:
                tables.outcome_counts[
                    LookupOutcome.BLOOM_FILTERED
                ] += cold_acts
                tables.bloom.queries += cold_acts
                tables.bloom.filtered += cold_acts
            else:
                tables.fpt.lookups += cold_acts
        if traced:
            self.telemetry.registry.histogram("fpt_lookup_ns").observe_many(
                lookup_ns, scheme=self.name
            )
        self.now_ns = last_now

    # -------------------------------------------------------------- internals

    def _throttle_fallback(
        self,
        logical_row: int,
        physical_row: int,
        now_ns: float,
        reason: str,
        busy_ns: float = 0.0,
    ) -> AccessResult:
        """Degrade a failed quarantine to Blockhammer-style throttling.

        The row stays where it is (no mapping was touched) and the
        access is stalled by one safe inter-activation interval, so the
        row cannot reach the Rowhammer threshold while the RQA is
        unavailable -- mitigation by rate limiting instead of by
        migration (the canonical fallback; DESIGN.md §8).
        """
        self.throttle_fallbacks += 1
        stall = self._throttle_interval_ns
        self._row_stall_ns[physical_row] = (
            self._row_stall_ns.get(physical_row, 0.0) + stall
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "throttle", now_ns,
                scheme=self.name, row=physical_row, stall_ns=stall,
                reason=reason,
            )
            self.telemetry.inc(
                "throttles_total", scheme=self.name, reason=reason
            )
        return AccessResult(
            physical_row=physical_row, busy_ns=busy_ns, stalled_ns=stall
        )

    def _interrupted_transfer_ns(
        self, logical_row: int, now_ns: float
    ) -> Optional[float]:
        """Run the ``migration_interrupt`` fault site for one migration.

        Returns the wasted-channel-time penalty of the interrupted
        attempts when a retry eventually succeeds, or ``None`` when the
        retry budget is exhausted and the caller must fall back to
        throttling (or fail, per ``rqa_full_policy``).  Interruptions
        abort the destination write before the mapping tables are
        updated, so every outcome leaves the row fully at its source:
        rollback-or-complete, never a half-migrated mapping.
        """
        faults = self.faults
        budget = self.config.migration_max_retries
        penalty = 0.0
        attempt = 0
        while faults.inject(
            "migration_interrupt", ts_ns=now_ns,
            scheme=self.name, row=logical_row, attempt=attempt,
        ):
            attempt += 1
            self.migration_retries += 1
            penalty += self._costs.interrupted_attempt_ns(attempt)
            if attempt > budget:
                self.aborted_migrations += 1
                if self.telemetry.enabled:
                    self.telemetry.inc(
                        "aborted_migrations_total", scheme=self.name
                    )
                return None
        return penalty

    def _quarantine(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        """Move ``logical_row`` (currently at ``physical_row``) into the RQA."""
        busy = 0.0
        if self.faults.enabled:
            if self.faults.inject(
                "rqa_forced_full", ts_ns=now_ns,
                scheme=self.name, row=logical_row,
            ):
                # Injected slot exhaustion (a DoS-pressure RQA): the
                # quarantine cannot land, so rate-limit the row instead.
                return self._throttle_fallback(
                    logical_row, physical_row, now_ns, reason="rqa-full"
                )
            penalty = self._interrupted_transfer_ns(logical_row, now_ns)
            if penalty is None:
                if self.config.rqa_full_policy == "fail":
                    raise FaultExhaustedError(
                        f"migration of row {logical_row} interrupted more "
                        f"than migration_max_retries="
                        f"{self.config.migration_max_retries} times"
                    )
                return self._throttle_fallback(
                    logical_row, physical_row, now_ns,
                    reason="migration-aborted",
                    busy_ns=self._costs.interrupted_attempt_ns(1),
                )
            busy += penalty
        extra_acts = []
        evicted = False
        telemetry = self.telemetry
        try:
            allocation = self.rqa.allocate(logical_row, self.current_epoch)
        except RqaExhaustedError:
            if self.config.rqa_full_policy == "fail":
                raise
            return self._throttle_fallback(
                logical_row, physical_row, now_ns,
                reason="rqa-exhausted", busy_ns=busy,
            )
        dest_physical = self.rqa_base + allocation.slot
        if (
            allocation.evicted_row is not None
            and allocation.evicted_row != logical_row
        ):
            # Lazy drain: move the stale previous-epoch resident home.
            stale = allocation.evicted_row
            if self.data is not None:
                self.data.move(dest_physical, stale)
            busy += self._migration_ns + self._release_mapping(
                stale, dest_physical
            )
            self.energy.add_migration(self.config.geometry.row_bytes)
            # Only the destination *write* is charged to the ledger:
            # the source read restores the departing row (like a
            # refresh) and is not an attack-usable activation of it.
            extra_acts.append(stale)
            self.stats.row_moves += 1
            self.stats.evictions += 1
            evicted = True
            if telemetry.enabled:
                telemetry.event(
                    "eviction", now_ns,
                    scheme=self.name, row=stale, slot=allocation.slot,
                    reason="lazy-drain",
                )
                telemetry.inc(
                    "evictions_total", scheme=self.name, reason="lazy-drain"
                )
        was_quarantined = physical_row != logical_row
        if was_quarantined and physical_row != dest_physical:
            # Internal migration: free the slot the row came from.
            # (When the head has lapped back to the row's own slot,
            # source and destination coincide and there is nothing to
            # release -- allocate() already refreshed the epoch tag.)
            self.rqa.release(physical_row - self.rqa_base)
            self.internal_migrations += 1
        if self.data is not None and physical_row != dest_physical:
            self.data.move(physical_row, dest_physical)
        busy += self._migration_ns + self.tables.on_quarantine(
            logical_row, allocation.slot
        )
        self.energy.add_migration(self.config.geometry.row_bytes)
        extra_acts.append(dest_physical)
        self.stats.migrations += 1
        self.stats.row_moves += 1
        if telemetry.enabled:
            telemetry.event(
                "migration", now_ns,
                scheme=self.name, row=logical_row, src=physical_row,
                dest=dest_physical, slot=allocation.slot, reason="demand",
                busy_ns=busy,
            )
            telemetry.inc(
                "migrations_total", scheme=self.name, reason="demand"
            )
        return AccessResult(
            physical_row=dest_physical,
            busy_ns=busy,
            migrated=True,
            evicted=evicted,
            extra_activations=tuple(extra_acts),
        )

    def _release_mapping(self, stale_row: int, slot_physical: int) -> float:
        """Drop the mapping of an evicted stale row.

        Table rows are mapped through the SRAM-pinned entries; all other
        rows through the table backend.  Returns the update latency.
        """
        if self._pinned_fpt.get(stale_row) == slot_physical:
            del self._pinned_fpt[stale_row]
            return 0.0
        return self.tables.on_release(stale_row)

    def _observe_table_row(self, table_row: int, count: int = 1) -> None:
        """Track (and if needed quarantine) in-DRAM table row accesses."""
        physical = self._pinned_fpt.get(table_row, table_row)
        crossings = self.tracker.observe_batch(physical, count)
        for _ in range(crossings):
            self._quarantine_table_row(table_row)

    def _quarantine_table_row(self, table_row: int) -> None:
        """Move a hammered table row into the RQA (Sec. VI-B integrity)."""
        telemetry = self.telemetry
        physical = self._pinned_fpt.get(table_row, table_row)
        try:
            allocation = self.rqa.allocate(table_row, self.current_epoch)
        except RqaExhaustedError:
            if self.config.rqa_full_policy == "fail":
                raise
            # Degraded path: the table row stays put and is rate-limited
            # like any other unquarantinable row.
            self._throttle_fallback(
                table_row, physical, self.now_ns, reason="rqa-exhausted"
            )
            return
        dest_physical = self.rqa_base + allocation.slot
        if allocation.evicted_row is not None:
            stale = allocation.evicted_row
            if self.data is not None:
                self.data.move(dest_physical, stale)
            self._release_mapping(stale, dest_physical)
            self.stats.row_moves += 1
            self.stats.evictions += 1
            self.energy.add_migration(self.config.geometry.row_bytes)
            if telemetry.enabled:
                telemetry.event(
                    "eviction", self.now_ns,
                    scheme=self.name, row=stale, slot=allocation.slot,
                    reason="lazy-drain",
                )
                telemetry.inc(
                    "evictions_total", scheme=self.name, reason="lazy-drain"
                )
        if self.data is not None:
            self.data.move(physical, dest_physical)
        if physical != table_row:
            self.rqa.release(physical - self.rqa_base)
            self.internal_migrations += 1
        self._pinned_fpt[table_row] = dest_physical
        self.stats.migrations += 1
        self.stats.row_moves += 1
        self.table_row_quarantines += 1
        self.energy.add_migration(self.config.geometry.row_bytes)
        if telemetry.enabled:
            telemetry.event(
                "migration", self.now_ns,
                scheme=self.name, row=table_row, src=physical,
                dest=dest_physical, slot=allocation.slot, reason="table-row",
            )
            telemetry.inc(
                "migrations_total", scheme=self.name, reason="table-row"
            )

    # --------------------------------------------------------------- services

    def table_dram_busy_ns(self) -> float:
        """Channel time spent on in-DRAM FPT/RPT traffic (Sec. V).

        Zero in SRAM-table mode.  This is the extra cost Fig. 9 measures
        between the SRAM and memory-mapped designs.
        """
        tables = self.tables
        if not isinstance(tables, MemoryMappedTables):
            return 0.0
        accesses = (
            tables.dram_fpt.dram_reads
            + tables.dram_fpt.dram_writes
            + tables.rpt_dram_accesses
        )
        return accesses * tables.dram_lookup_ns

    def locate(self, logical_row: int) -> int:
        """Current physical location of ``logical_row`` (no side effects).

        For tests and tools; does not touch trackers or lookup stats.
        """
        if isinstance(self.tables, SramTables):
            slot = self.tables.fpt.peek(logical_row)
        else:
            slot = self.tables.dram_fpt.peek(logical_row)
        if slot is None:
            return logical_row
        return self.rqa_base + slot

    def is_quarantined(self, logical_row: int) -> bool:
        """Whether ``logical_row`` currently lives in the RQA."""
        return self.locate(logical_row) != logical_row

    def drain_stale(self, max_rows: int = 64) -> int:
        """Background drain: return up to ``max_rows`` stale rows home.

        Sec. IV-D notes eviction latency can be removed from the critical
        path by periodically draining old entries; this implements that
        optional optimisation.  Returns the number of rows drained.
        """
        drained = 0
        for slot in self.rqa.stale_slots(self.current_epoch):
            if drained >= max_rows:
                break
            row = self.rqa.release(slot)
            if row is None:
                continue
            if self.data is not None:
                self.data.move(self.rqa_base + slot, row)
            self.tables.on_release(row)
            self.stats.row_moves += 1
            self.energy.add_migration(self.config.geometry.row_bytes)
            drained += 1
        return drained

    def collect_metrics(self, telemetry) -> None:
        """Snapshot-time export of AQUA's structure-level statistics."""
        super().collect_metrics(telemetry)
        registry = telemetry.registry
        scheme = self.name
        registry.gauge("rqa_occupancy").set(
            self.rqa.occupancy(), scheme=scheme
        )
        registry.counter("rqa_allocations_total").set_total(
            self.rqa.allocations, scheme=scheme
        )
        registry.counter("rqa_evictions_total").set_total(
            self.rqa.evictions, scheme=scheme
        )
        registry.counter("internal_migrations_total").set_total(
            self.internal_migrations, scheme=scheme
        )
        registry.counter("table_row_quarantines_total").set_total(
            self.table_row_quarantines, scheme=scheme
        )
        if self.faults.enabled or self.config.rqa_full_policy != "fail":
            registry.counter("throttle_fallbacks_total").set_total(
                self.throttle_fallbacks, scheme=scheme
            )
            registry.counter("migration_retries_total").set_total(
                self.migration_retries, scheme=scheme
            )
            registry.counter("aborted_migrations_total").set_total(
                self.aborted_migrations, scheme=scheme
            )
            if isinstance(self.tables, MemoryMappedTables):
                registry.counter("fpt_cache_forced_misses_total").set_total(
                    self.tables.forced_misses, scheme=scheme
                )
        self.tracker.collect_metrics(telemetry, scheme=scheme)
        if isinstance(self.tables, MemoryMappedTables):
            self.tables.cache.collect_metrics(telemetry, scheme=scheme)
            for outcome, count in self.tables.outcome_counts.items():
                registry.counter("fpt_lookup_outcomes_total").set_total(
                    count, scheme=scheme, outcome=outcome.value
                )

    def lookup_breakdown(self) -> Dict[LookupOutcome, float]:
        """Fig. 10 series (memory-mapped mode only)."""
        if isinstance(self.tables, MemoryMappedTables):
            return self.tables.lookup_breakdown()
        total = max(1, self.tables.fpt.lookups)
        return {LookupOutcome.SRAM: self.tables.fpt.lookups / total}
