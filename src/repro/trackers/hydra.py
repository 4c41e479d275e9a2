"""Hydra: hybrid SRAM/DRAM aggressor tracker (Qureshi et al., ISCA 2022).

Appendix B of the AQUA paper pairs AQUA with Hydra to cut tracker SRAM
from 396 KB (Misra-Gries) to about 30 KB.  Hydra's structure:

* **Group Count Table (GCT)** -- SRAM counters shared by groups of rows.
  All activations in a group bump the shared counter until it reaches
  ``group_threshold``.
* **Row Count Table (RCT)** -- per-row counters *in DRAM*, initialised
  (to the group threshold) only when a group's shared counter saturates.
* **Row Count Cache (RCC)** -- a small SRAM cache of hot RCT entries so
  that most per-row counter updates avoid DRAM traffic.

The tracker is exact-from-above: the per-row estimate never undercounts,
so it satisfies the same detection guarantee (property P1) as
Misra-Gries.  RCC misses are counted in ``rct_dram_accesses`` but not
charged: no part of the simulator turns them into DRAM time yet
(DESIGN.md §1).

Every update goes through one closed-form chunk rule,
:meth:`HydraTracker.observe_batch`, which settles ``n`` back-to-back
activations of a row in O(1); :meth:`HydraTracker.observe` is its
``n = 1`` case.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.trackers.base import AggressorTracker


class HydraTracker(AggressorTracker):
    """Hybrid group/row counter tracker.

    Parameters
    ----------
    threshold:
        Effective mitigation threshold (counts trigger at multiples).
    rows_per_group:
        Rows sharing one GCT counter (Hydra uses 128 in its default).
    group_threshold:
        GCT count at which per-row tracking engages.  Hydra sets this
        to ``threshold / 2`` so no row can reach the threshold while
        hidden inside an untracked group.
    rcc_entries:
        Capacity of the row-count cache (LRU).
    """

    def __init__(
        self,
        threshold: int,
        rows_per_group: int = 128,
        group_threshold: Optional[int] = None,
        rcc_entries: int = 4096,
    ) -> None:
        super().__init__(threshold)
        if rows_per_group < 1:
            raise ValueError("rows_per_group must be >= 1")
        if group_threshold is None:
            group_threshold = max(1, threshold // 2)
        if not 1 <= group_threshold <= threshold:
            raise ValueError("group_threshold must be in [1, threshold]")
        if rcc_entries < 1:
            raise ValueError("rcc_entries must be >= 1")
        self.rows_per_group = rows_per_group
        self.group_threshold = group_threshold
        self.rcc_entries = rcc_entries
        self._gct: Dict[int, int] = {}
        self._rct: Dict[int, int] = {}
        self._rcc: OrderedDict = OrderedDict()
        self.rct_dram_accesses = 0
        self.rcc_hits = 0

    def observe(self, row_id: int) -> bool:
        return self.observe_batch(row_id, 1) > 0

    def observe_batch(self, row_id: int, count: int) -> int:
        """Record ``count`` back-to-back activations of ``row_id`` in O(1).

        Per activation, an untracked row bumps its group's GCT counter.
        Once the GCT reaches ``group_threshold``, the row's next
        activation installs it in the RCT at the GCT value (a
        conservative over-estimate, so detection is never missed), and
        from then on the row's own counter advances through the RCC.
        For a chunk that means: ``step`` activations take an untracked
        row to its install, and the install plus the rest go to the row
        counter, whose crossings are the threshold multiples it steps
        over.  The RCC sees one access (a hit, or a miss that reads the
        RCT from DRAM) and then ``k - 1`` hits for a chunk of ``k``
        row-counter activations, as the row stays most recent.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return 0
        self.observations += count
        rct = self._rct
        before = rct.get(row_id)
        if before is None:
            gct = self._gct
            group = row_id // self.rows_per_group
            level = gct.get(group, 0)
            step = self.group_threshold - level
            if step < 1:
                step = 1
            if count < step:
                gct[group] = level + count
                return 0
            # The install activation counts as the row's first: it
            # "crosses" from install - 1, i.e. triggers on a multiple.
            before = level + step - 1
            gct[group] = before + 1
            count -= step - 1
        after = before + count
        rct[row_id] = after
        rcc = self._rcc
        if row_id in rcc:
            rcc.move_to_end(row_id)
            self.rcc_hits += count
        else:
            self.rct_dram_accesses += 1
            self.rcc_hits += count - 1
            rcc[row_id] = True
            if len(rcc) > self.rcc_entries:
                rcc.popitem(last=False)
        threshold = self.threshold
        crossings = after // threshold - before // threshold
        if crossings:
            self.triggers += crossings
        return crossings

    def estimate(self, row_id: int) -> int:
        if row_id in self._rct:
            return self._rct[row_id]
        return self._gct.get(row_id // self.rows_per_group, 0)

    def drop(self, row_id: int) -> bool:
        if row_id not in self._rct:
            return False
        del self._rct[row_id]
        self._rcc.pop(row_id, None)
        return True

    def reset(self) -> None:
        self._gct.clear()
        self._rct.clear()
        self._rcc.clear()

    @property
    def tracked_rows(self) -> int:
        """Number of rows with engaged per-row counters."""
        return len(self._rct)
