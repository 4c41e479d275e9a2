"""Victim-refresh mitigation (Graphene-style) -- the vulnerable baseline.

When the tracker flags an aggressor, the rows physically adjacent to it
(at the configured blast radius) are refreshed, restoring their charge
(Sec. II-D).  This defeats classic single/double-sided Rowhammer but has
two pitfalls the paper highlights (Table IV):

* It requires knowing the DRAM-internal row adjacency (``AddressMapper``
  here plays the role of that proprietary knowledge).
* The refreshes themselves are row activations, so they *hammer the
  victims' own neighbours*: the Half-Double attack turns the mitigation
  into an amplifier against rows at distance 2 from the aggressor.  The
  security oracle (:mod:`repro.analysis.security`) counts refreshes
  issued by this scheme as activations of the refreshed row, which is
  exactly the physics Half-Double exploits.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dram.address import AddressMapper
from repro.dram.geometry import DramGeometry, DEFAULT_GEOMETRY
from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.mitigations.base import AccessResult, MitigationScheme
from repro.trackers import MisraGriesTracker


class VictimRefresh(MitigationScheme):
    """Refresh rows adjacent to a flagged aggressor."""

    name = "victim-refresh"

    def __init__(
        self,
        rowhammer_threshold: int = 1000,
        geometry: DramGeometry = DEFAULT_GEOMETRY,
        timing: DDR4Timing = DDR4_2400,
        blast_radius: int = 1,
        tracker_entries_per_bank: Optional[int] = None,
        mapper: Optional[AddressMapper] = None,
        knows_mapping: bool = True,
        telemetry=None,
    ) -> None:
        super().__init__(telemetry)
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.geometry = geometry
        self.timing = timing
        self.blast_radius = blast_radius
        self.rowhammer_threshold = rowhammer_threshold
        #: Whether the memory controller knows the DRAM-internal row
        #: order.  Vendors do not disclose it (Table IV): without it,
        #: the defense refreshes the rows it *assumes* are adjacent,
        #: which under a scrambled mapping are the wrong rows.
        self.knows_mapping = knows_mapping
        # Same epoch-reset compensation as AQUA: trigger at T_RH / 2.
        self.threshold = max(1, rowhammer_threshold // 2)
        banks = geometry.banks_per_rank
        self.mapper = mapper if mapper is not None else AddressMapper(geometry)
        self.tracker = MisraGriesTracker(
            self.threshold,
            num_banks=banks,
            bank_of=self.mapper.bank_of,
            entries_per_bank=tracker_entries_per_bank,
        )

    @property
    def visible_rows(self) -> int:
        return self.geometry.rows_per_rank

    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        if not 0 <= logical_row < self.visible_rows:
            raise ValueError(f"row {logical_row} outside memory")
        return logical_row, 0.0, None

    def _observe(self, physical_row: int) -> bool:
        return self.tracker.observe(physical_row)

    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:
        victims = []
        neighbor_fn = (
            self.mapper.neighbors
            if self.knows_mapping
            else self.mapper.assumed_neighbors
        )
        for distance in range(1, self.blast_radius + 1):
            victims.extend(neighbor_fn(physical_row, distance))
        self.stats.victim_refreshes += len(victims)
        self.stats.migrations += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "victim_refresh", now_ns,
                scheme=self.name, aggressor=physical_row,
                victims=list(victims),
            )
            self.telemetry.inc(
                "victim_refreshes_total", len(victims), scheme=self.name
            )
        # Each victim refresh is one row activation's worth of bank time.
        busy = len(victims) * self.timing.trc_ns
        return AccessResult(
            physical_row=physical_row,
            busy_ns=busy,
            refreshed_rows=tuple(victims),
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
        """Vectorized epoch feed (exact-equivalent to the scalar loop).

        Translation is the identity and refreshes never touch the
        tracker, so the tracker's array kernel can consume the whole
        stream up front; only the (sparse) crossing chunks then replay
        their mitigations in stream order, at their original
        timestamps, preserving the float accumulation order of
        ``stats.busy_ns`` (non-crossing chunks add exactly ``0.0``).
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
        stats.accesses += total
        uniq, inverse = np.unique(rows, return_inverse=True)
        totals = np.bincount(
            inverse, weights=counts, minlength=len(uniq)
        ).astype(np.int64)
        if tracker.epoch_cannot_cross(uniq, totals):
            tracker.settle_epoch_counters(rows, counts)
            self.now_ns = last_now
            return
        crossings = tracker.observe_epoch(rows, counts)
        hot = np.flatnonzero(crossings)
        if len(hot):
            acts_before = np.cumsum(counts) - counts
            mitigate = self._mitigate
            for row, n_cross, before in zip(
                rows[hot].tolist(),
                crossings[hot].tolist(),
                acts_before[hot].tolist(),
            ):
                now = start_ns + dt_ns * before
                self.now_ns = now
                busy = 0.0
                for _ in range(n_cross):
                    step = mitigate(row, row, now)
                    busy += step.busy_ns
                stats.busy_ns += busy
        self.now_ns = last_now
