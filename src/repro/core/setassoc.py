"""Plain set-associative table: the ablation baseline for the CAT.

Sec. IV-C argues the FPT "must be able to hold such entries without any
set-conflicts", motivating the collision-avoidance table.  This module
provides the design it is compared against: a conventional
set-associative table that *evicts* on set conflict.  For an FPT, an
eviction silently un-maps a quarantined row -- a correctness disaster --
so the ablation measures how many entries a plain table can hold before
its first forced eviction, versus the CAT's near-capacity load.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hashing import mix


class SetAssociativeTable:
    """Fixed-geometry set-associative map with LRU eviction on conflict."""

    def __init__(self, capacity: int, ways: int = 8, seed: int = 0x5E7A) -> None:
        if capacity < ways or capacity % ways != 0:
            raise ValueError("capacity must be a positive multiple of ways")
        self.capacity = capacity
        self.ways = ways
        self.num_sets = capacity // ways
        self._seed = mix(seed, 0xF00D)
        # sets[i]: insertion-ordered dict (oldest first = LRU victim).
        self._sets: List[Dict[int, object]] = [
            dict() for _ in range(self.num_sets)
        ]
        self.evictions = 0

    def _set_of(self, key: int) -> Dict[int, object]:
        return self._sets[mix(key, self._seed) % self.num_sets]

    def lookup(self, key: int) -> Optional[object]:
        """Value for ``key`` or ``None`` (refreshes LRU position)."""
        bucket = self._set_of(key)
        if key not in bucket:
            return None
        value = bucket.pop(key)
        bucket[key] = value
        return value

    def insert(self, key: int, value: object) -> Optional[int]:
        """Insert ``key``; returns the evicted key on set conflict."""
        bucket = self._set_of(key)
        if key in bucket:
            bucket.pop(key)
            bucket[key] = value
            return None
        evicted = None
        if len(bucket) >= self.ways:
            evicted = next(iter(bucket))
            del bucket[evicted]
            self.evictions += 1
        bucket[key] = value
        return evicted

    def remove(self, key: int) -> bool:
        bucket = self._set_of(key)
        if key in bucket:
            del bucket[key]
            return True
        return False

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def load_at_first_eviction(self, keys) -> int:
        """Insert ``keys`` until the first forced eviction; return count.

        The ablation metric: how much of the table's capacity is usable
        before a conflict would silently drop a quarantined row's
        mapping.
        """
        inserted = 0
        for key in keys:
            if self.insert(key, inserted) is not None:
                return inserted
            inserted += 1
        return inserted
