"""Resettable grouped bloom filter for quarantine presence (Sec. V-B).

With memory-mapped tables, every access would need an FPT read unless
filtered.  AQUA's filter exploits the FPT's layout: a 64-byte FPT line
holds entries for 32 consecutive rows, and a *group* is half such a line
(16 consecutive rows).  One bit per group:

* bit = 0  ->  **no** row of the group is quarantined (definitive; the
  access proceeds to the original location with no FPT lookup),
* bit = 1  ->  *some* row of the group may be quarantined (the FPT-Cache
  and possibly DRAM must be consulted).

Because the bit is derived from group membership rather than hashing,
it can be *reset* exactly: when an FPT entry invalidates, the bit clears
iff no other entry in the group remains valid -- a single bit per entry,
with none of the 6x SRAM cost of counting bloom filters.  This model
keeps a per-group valid count internally to implement that rule (the
hardware reads the co-resident FPT line entries instead).
"""

from __future__ import annotations

from typing import Dict, KeysView, List


class ResettableBloomFilter:
    """One presence bit per group of ``group_size`` consecutive rows."""

    def __init__(self, total_rows: int, group_size: int = 16) -> None:
        if total_rows < 1:
            raise ValueError("total_rows must be >= 1")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.total_rows = total_rows
        self.group_size = group_size
        self.num_groups = (total_rows + group_size - 1) // group_size
        self._bits: List[bool] = [False] * self.num_groups
        self._valid_in_group: Dict[int, int] = {}
        self.queries = 0
        self.filtered = 0

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint: one bit per group (16 KB for 128K groups)."""
        return (self.num_groups + 7) // 8

    def group_of(self, row_id: int) -> int:
        """Group index of ``row_id``."""
        if not 0 <= row_id < self.total_rows:
            raise ValueError(f"row {row_id} outside {self.total_rows} rows")
        return row_id // self.group_size

    def maybe_quarantined(self, row_id: int) -> bool:
        """Filter query: ``False`` definitively means not quarantined."""
        self.queries += 1
        hit = self._bits[self.group_of(row_id)]
        if not hit:
            self.filtered += 1
        return hit

    def on_insert(self, row_id: int) -> None:
        """An FPT entry for ``row_id`` became valid: set the group bit."""
        group = self.group_of(row_id)
        self._bits[group] = True
        self._valid_in_group[group] = self._valid_in_group.get(group, 0) + 1

    def on_invalidate(self, row_id: int) -> None:
        """An FPT entry for ``row_id`` invalidated.

        Clears the group bit only when the group has no remaining valid
        entries (the resettability rule of Sec. V-B).
        """
        group = self.group_of(row_id)
        remaining = self._valid_in_group.get(group, 0) - 1
        if remaining < 0:
            raise ValueError(
                f"invalidate for row {row_id} without matching insert"
            )
        if remaining == 0:
            del self._valid_in_group[group]
            self._bits[group] = False
        else:
            self._valid_in_group[group] = remaining

    def group_valid_count(self, row_id: int) -> int:
        """Valid FPT entries in ``row_id``'s group (singleton detection)."""
        return self._valid_in_group.get(self.group_of(row_id), 0)

    def positive_groups(self) -> KeysView[int]:
        """Read-only view of the groups whose bit is set."""
        return self._valid_in_group.keys()

    def set_groups(self) -> int:
        """Number of groups whose bit is currently set."""
        return sum(self._bits)

    @property
    def filter_rate(self) -> float:
        """Fraction of queries answered definitively-not-quarantined."""
        if self.queries == 0:
            return 0.0
        return self.filtered / self.queries
