"""Forward-Pointer Table (FPT): logical row -> RQA slot.

The FPT answers, on every memory access, "is this row quarantined, and
if so where?" (Fig. 4).  Entries exist only for quarantined rows.
Because quarantined rows come from arbitrary addresses, the SRAM variant
is an over-provisioned Collision-Avoidance Table: 32K entry slots for at
most 23K valid entries (Sec. IV-C).

Each entry is conceptually ``(valid, tag, 15-bit forward pointer)``; the
functional model stores ``row -> slot``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

from repro.core.cat import CollisionAvoidanceTable, TableOverflowError


DEFAULT_FPT_CAPACITY = 32 * 1024
"""The paper's CAT provisioning: 32K entries for 23K valid (Sec. IV-C)."""


class ForwardPointerTable:
    """CAT-backed map from quarantined logical row to RQA slot index.

    Raises :class:`~repro.core.cat.TableOverflowError` if the CAT cannot
    place an entry -- a design-invariant violation, since capacity is
    provisioned above the maximum quarantine population.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FPT_CAPACITY,
        ways: int = 8,
        max_valid: Optional[int] = None,
    ) -> None:
        self._cat = CollisionAvoidanceTable(capacity=capacity, ways=ways)
        self.capacity = capacity
        self.max_valid = max_valid
        self.lookups = 0
        self.hits = 0

    def lookup(self, row_id: int) -> Optional[int]:
        """RQA slot holding ``row_id``, or ``None`` if not quarantined."""
        self.lookups += 1
        slot = self._cat.lookup(row_id)
        if slot is not None:
            self.hits += 1
        return slot

    def peek(self, row_id: int) -> Optional[int]:
        """:meth:`lookup` without counting it (model-internal use)."""
        return self._cat.lookup(row_id)

    def insert(self, row_id: int, slot: int) -> None:
        """Map ``row_id`` to RQA ``slot`` (insert or update)."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        if (
            self.max_valid is not None
            and row_id not in self._cat
            and len(self._cat) >= self.max_valid
        ):
            raise TableOverflowError(
                f"FPT valid entries would exceed provisioned {self.max_valid}"
            )
        self._cat.insert(row_id, slot)

    def remove(self, row_id: int) -> bool:
        """Invalidate the entry for ``row_id``; return whether it existed."""
        return self._cat.remove(row_id)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._cat

    def __len__(self) -> int:
        return len(self._cat)

    def items(self) -> Iterator[Tuple[int, int]]:
        """All (row, slot) mappings (test/inspection helper)."""
        return iter(self._cat.items())

    @property
    def load_factor(self) -> float:
        return self._cat.load_factor

    @staticmethod
    def sram_bytes(
        num_entries: int = DEFAULT_FPT_CAPACITY,
        row_pointer_bits: int = 21,
        slot_pointer_bits: int = 15,
    ) -> int:
        """SRAM size of the table: per-entry valid + tag + forward pointer.

        The paper reports 108 KB for 32K entries (Sec. IV-C), i.e. 27
        bits per entry: a valid bit, an 11-bit tag (the CAT's skewed
        index covers the remaining row-address bits), and a 15-bit
        forward pointer.
        """
        index_bits = max(0, (num_entries // 2 // 8 - 1).bit_length())
        tag_bits = max(0, row_pointer_bits - index_bits)
        entry_bits = 1 + tag_bits + slot_pointer_bits
        return math.ceil(num_entries * entry_bits / 8)


class DramForwardPointerTable:
    """Memory-mapped FPT: one entry per row in memory (Sec. V-A).

    Provisioning an entry per row (2 bytes each, 4 MB of DRAM for 2M
    rows) makes the in-DRAM lookup a single direct-mapped read: the
    entry's byte address is a linear function of the row id, so exactly
    one DRAM access resolves any row.  A 64-byte line holds entries for
    32 consecutive rows.
    """

    ENTRY_BYTES = 2
    LINE_BYTES = 64

    def __init__(self, total_rows: int) -> None:
        if total_rows < 1:
            raise ValueError("total_rows must be >= 1")
        self.total_rows = total_rows
        self._entries: Dict[int, int] = {}
        self.dram_reads = 0
        self.dram_writes = 0

    @property
    def entries_per_line(self) -> int:
        """FPT entries per 64-byte line (32)."""
        return self.LINE_BYTES // self.ENTRY_BYTES

    @property
    def dram_bytes(self) -> int:
        """DRAM footprint of the table (4 MB for 2M rows)."""
        return self.total_rows * self.ENTRY_BYTES

    def line_of(self, row_id: int) -> int:
        """Index of the 64-byte FPT line holding ``row_id``'s entry."""
        self._validate(row_id)
        return row_id // self.entries_per_line

    def _validate(self, row_id: int) -> None:
        if not 0 <= row_id < self.total_rows:
            raise ValueError(f"row {row_id} outside table of {self.total_rows}")

    def read(self, row_id: int) -> Optional[int]:
        """Read ``row_id``'s entry from DRAM (counted as one line read)."""
        self._validate(row_id)
        self.dram_reads += 1
        return self._entries.get(row_id)

    def write(self, row_id: int, slot: Optional[int]) -> None:
        """Write (or invalidate, with ``None``) ``row_id``'s entry."""
        self._validate(row_id)
        self.dram_writes += 1
        if slot is None:
            self._entries.pop(row_id, None)
        else:
            self._entries[row_id] = slot

    def peek(self, row_id: int) -> Optional[int]:
        """Read without charging a DRAM access (model-internal use)."""
        self._validate(row_id)
        return self._entries.get(row_id)

    def valid_in_line(self, line: int) -> int:
        """Number of valid entries in FPT line ``line``.

        Used by the resettable bloom filter: a group bit clears only when
        every entry in its half-line is invalid (Sec. V-B).
        """
        base = line * self.entries_per_line
        return sum(
            1
            for row in range(base, min(base + self.entries_per_line, self.total_rows))
            if row in self._entries
        )

    def __len__(self) -> int:
        return len(self._entries)
