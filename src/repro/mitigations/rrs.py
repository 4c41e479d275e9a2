"""Randomized Row-Swap (RRS) baseline (Saileshwar et al., ASPLOS 2022).

RRS mitigates Rowhammer by swapping an aggressor row with a uniformly
random row once the aggressor crosses a swap threshold.  Because its
security is *probabilistic* -- an attacker may rediscover the row's new
location by chance (birthday-paradox attacks) -- the swap threshold must
sit well below the Rowhammer threshold: ``T_RRS = T_RH / 6`` (Sec. II-F).

Cost model, from Sec. IV-F of the AQUA paper:

* A first-time swap of ``X`` with random ``Y`` migrates **two** rows
  (two reads + two writes, 2.74 us of channel time).
* Re-swapping a row that is already part of a pair ⟨X, Y⟩ first restores
  both rows and then creates two new pairs ⟨X, A⟩ and ⟨Y, B⟩ -- **four**
  row migrations.

The Row Indirection Table (RIT) is kept entirely in SRAM (a CAT, like
MIRAGE) because RRS's security requires constant-latency lookups that
do not leak the swap destination.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.migration import MigrationCosts, publish_costs
from repro.dram.data import RowDataStore
from repro.dram.geometry import DramGeometry, DEFAULT_GEOMETRY
from repro.dram.power import DramEnergyCounters
from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.mitigations.base import AccessResult, MitigationScheme
from repro.trackers import MisraGriesTracker


RRS_THRESHOLD_DIVISOR = 6
"""RRS swaps at one-sixth of the Rowhammer threshold (Sec. II-F)."""


class RandomizedRowSwap(MitigationScheme):
    """Functional + timing model of RRS on the shared scheme interface."""

    name = "rrs"

    def __init__(
        self,
        rowhammer_threshold: int = 1000,
        geometry: DramGeometry = DEFAULT_GEOMETRY,
        timing: DDR4Timing = DDR4_2400,
        seed: int = 0x5EED_077,
        track_data: bool = True,
        tracker_entries_per_bank: Optional[int] = None,
        telemetry=None,
    ) -> None:
        super().__init__(telemetry)
        if rowhammer_threshold < RRS_THRESHOLD_DIVISOR:
            raise ValueError(
                f"Rowhammer threshold must be >= {RRS_THRESHOLD_DIVISOR}"
            )
        self.rowhammer_threshold = rowhammer_threshold
        self.geometry = geometry
        self.timing = timing
        self.swap_threshold = max(1, rowhammer_threshold // RRS_THRESHOLD_DIVISOR)
        banks = geometry.banks_per_rank
        self.tracker = MisraGriesTracker(
            self.swap_threshold,
            num_banks=banks,
            bank_of=lambda row: row % banks,
            entries_per_bank=tracker_entries_per_bank,
        )
        self._rng = random.Random(seed)
        # RIT, functionally: logical -> physical (absent = identity),
        # with the inverse map for tracker-trigger resolution.
        self._map: Dict[int, int] = {}
        self._rev: Dict[int, int] = {}
        # Current swap partner of each swapped logical row.
        self._partner: Dict[int, int] = {}
        self.data = RowDataStore() if track_data else None
        self.energy = DramEnergyCounters()
        self._move_ns = timing.migration_ns(geometry.row_bytes)
        self.swaps = 0
        self.unswaps = 0
        if self.telemetry.enabled:
            self.tracker.attach_telemetry(
                self.telemetry, lambda: self.now_ns
            )
            publish_costs(
                self.telemetry,
                MigrationCosts.for_row(geometry.row_bytes, timing),
                scheme=self.name,
            )

    # ------------------------------------------------------------ scheme API

    @property
    def visible_rows(self) -> int:
        # RRS reserves no memory; every row stays software-visible.
        return self.geometry.rows_per_rank

    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        if not 0 <= logical_row < self.visible_rows:
            raise ValueError(f"row {logical_row} outside memory")
        physical = self._map.get(logical_row, logical_row)
        # Constant-latency SRAM RIT lookup (3-4 cycles).
        return physical, 1.5, None

    def _observe(self, physical_row: int) -> bool:
        return self.tracker.observe(physical_row)

    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        busy = 0.0
        moves = []
        reswap = logical_row in self._partner
        if reswap:
            # Re-swap of an already-swapped row: the existing pair is
            # first restored (2 row moves) and the aggressor is then
            # re-swapped (2 more), the 4-migration cost of Sec. IV-F.
            old_partner = self._unswap(logical_row)
            busy += 2 * self._move_ns
            moves.extend((logical_row, old_partner))
        busy += self._swap_with_random(logical_row, moves)
        self.stats.migrations += 1
        if self.telemetry.enabled:
            reason = "reswap" if reswap else "swap"
            self.telemetry.event(
                "migration", now_ns,
                scheme=self.name, row=logical_row,
                dest=self._map.get(logical_row, logical_row),
                reason=reason, busy_ns=busy,
            )
            self.telemetry.inc(
                "migrations_total", scheme=self.name, reason=reason
            )
        return AccessResult(
            physical_row=self._map.get(logical_row, logical_row),
            busy_ns=busy,
            migrated=True,
            extra_activations=tuple(moves),
        )

    def _end_epoch(self, new_epoch: int) -> None:
        super()._end_epoch(new_epoch)
        self.tracker.reset()

    def access_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """Fused epoch feed (exact-equivalent to the scalar loop).

        The RIT lookup is a dict probe and swaps draw from a seeded RNG
        in stream order, so the stream must be walked chunk-by-chunk --
        but the per-chunk :meth:`access_batch` framing (AccessResult
        construction, telemetry branches) is fused away, and an epoch
        with no swapped rows and a provably crossing-free stream
        settles as bulk counter arithmetic.
        """
        if self.telemetry.enabled or not self._epoch_fast_path_ok(
            rows, counts
        ):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        total = int(counts.sum())
        last_now = start_ns + dt_ns * (total - int(counts[-1]))
        epoch_of = self.refresh.epoch_of
        if epoch_of(start_ns) != epoch_of(last_now):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        self._sync_epoch(start_ns)
        tracker = self.tracker
        stats = self.stats
        if not self._map:
            uniq, inverse = np.unique(rows, return_inverse=True)
            totals = np.bincount(
                inverse, weights=counts, minlength=len(uniq)
            ).astype(np.int64)
            # With an empty RIT every translation is the identity, so
            # the logical totals are the physical totals the tracker
            # would see; a crossing-free verdict settles everything.
            if tracker.epoch_cannot_cross(uniq, totals):
                stats.accesses += total
                tracker.settle_epoch_counters(rows, counts)
                self.now_ns = last_now
                return
        # Feed each chunk straight to its bank, through the modulo bank
        # map the tracker was built with.
        observe = [bank.observe_batch for bank in tracker.banks]
        nb = len(observe)
        map_get = self._map.get
        mitigate = self._mitigate
        now = start_ns
        for row, cnt in zip(rows.tolist(), counts.tolist()):
            stats.accesses += cnt
            physical = map_get(row, row)
            crossings = observe[physical % nb](physical, cnt)
            if crossings:
                self.now_ns = now
                busy = 0.0
                for _ in range(crossings):
                    step = mitigate(row, physical, now)
                    busy += step.busy_ns
                    physical = step.physical_row
                stats.busy_ns += busy
            now += cnt * dt_ns
        self.now_ns = last_now

    # -------------------------------------------------------------- internals

    def _physical_of(self, logical_row: int) -> int:
        return self._map.get(logical_row, logical_row)

    def _set_mapping(self, logical_row: int, physical_row: int) -> None:
        if logical_row == physical_row:
            self._map.pop(logical_row, None)
            self._rev.pop(physical_row, None)
        else:
            self._map[logical_row] = physical_row
            self._rev[physical_row] = logical_row

    def logical_of(self, physical_row: int) -> int:
        """Logical row currently stored at ``physical_row``."""
        return self._rev.get(physical_row, physical_row)

    def _swap_rows(self, row_a: int, row_b: int) -> None:
        """Exchange the physical locations of logical rows a and b."""
        pa, pb = self._physical_of(row_a), self._physical_of(row_b)
        if self.data is not None:
            self.data.swap(pa, pb)
        self._set_mapping(row_a, pb)
        self._set_mapping(row_b, pa)
        self._partner[row_a] = row_b
        self._partner[row_b] = row_a
        self.energy.add_migration(self.geometry.row_bytes)
        self.energy.add_migration(self.geometry.row_bytes)
        self.stats.row_moves += 2
        self.swaps += 1

    def _unswap(self, logical_row: int) -> int:
        """Restore ``logical_row`` and its partner to their own homes."""
        partner = self._partner.pop(logical_row)
        self._partner.pop(partner, None)
        pa, pb = self._physical_of(logical_row), self._physical_of(partner)
        if self.data is not None:
            self.data.swap(pa, pb)
        # After the data swap both rows are back home; drop both mappings.
        self._map.pop(logical_row, None)
        self._rev.pop(pa, None)
        self._map.pop(partner, None)
        self._rev.pop(pb, None)
        self.energy.add_migration(self.geometry.row_bytes)
        self.energy.add_migration(self.geometry.row_bytes)
        self.stats.row_moves += 2
        self.unswaps += 1
        return partner

    def _swap_with_random(self, logical_row: int, moves: list) -> float:
        """Swap ``logical_row`` with a fresh random unswapped row."""
        while True:
            candidate = self._rng.randrange(self.visible_rows)
            if candidate != logical_row and candidate not in self._partner:
                break
        self._swap_rows(logical_row, candidate)
        moves.extend(
            (self._physical_of(logical_row), self._physical_of(candidate))
        )
        return 2 * self._move_ns

    def collect_metrics(self, telemetry) -> None:
        """Snapshot-time export of RRS swap-pair state."""
        super().collect_metrics(telemetry)
        registry = telemetry.registry
        registry.counter("rrs_swaps_total").set_total(
            self.swaps, scheme=self.name
        )
        registry.counter("rrs_unswaps_total").set_total(
            self.unswaps, scheme=self.name
        )
        registry.gauge("rrs_swapped_pairs").set(
            len(self._partner) // 2, scheme=self.name
        )
        self.tracker.collect_metrics(telemetry, scheme=self.name)

    def sram_bytes(self) -> int:
        """SRAM for the RIT at this threshold (see analysis.storage)."""
        from repro.analysis.storage import rrs_rit_bytes

        return rrs_rit_bytes(self.rowhammer_threshold, self.geometry)
