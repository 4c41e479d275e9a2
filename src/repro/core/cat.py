"""Collision-Avoidance Table (CAT), adopted from MIRAGE / RRS.

The FPT must hold entries for *arbitrary* rows without set conflicts
(Sec. IV-C): any 23K of the 2M rows may be quarantined simultaneously,
so a plain set-associative table could overflow a hot set.  The CAT
solves this with two skewed halves and power-of-two-choices insertion,
plus bounded cuckoo-style relocation, so that an over-provisioned table
(32K entries for 23K valid) holds every entry with overwhelming
probability.  RRS uses the same structure for its Row Indirection Table.

This is a functional model: it reproduces placement behaviour (skewed
indexing, load balancing, relocation, overflow detection) without
bit-level SRAM layout.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.hashing import mix


class TableOverflowError(RuntimeError):
    """Raised when an insert cannot be placed even after relocation.

    With the paper's over-provisioning this is a never-event; surfacing
    it loudly (rather than silently dropping the mapping) is a security
    requirement, since a dropped FPT entry would misroute accesses.
    """


class CollisionAvoidanceTable:
    """Two-skew, power-of-two-choices hash table with relocation.

    Parameters
    ----------
    capacity:
        Total entry slots across both skews (e.g. 32K for AQUA's FPT).
    ways:
        Entries per set (bucket).  MIRAGE-style CATs use wide buckets.
    seed:
        Base seed for the two skew hash functions (deterministic).
    max_relocations:
        Bound on the cuckoo relocation chain before declaring overflow.
    """

    def __init__(
        self,
        capacity: int,
        ways: int = 8,
        seed: int = 0xA9B7_55AA,
        max_relocations: int = 16,
    ) -> None:
        if capacity < 2 * ways:
            raise ValueError("capacity must allow at least one set per skew")
        self.capacity = capacity
        self.ways = ways
        self.max_relocations = max_relocations
        self.sets_per_skew = max(1, capacity // (2 * ways))
        self._seeds = (mix(seed, 0x1234_5678), mix(seed, 0x8765_4321))
        # buckets[skew][set] -> {key: value}
        self._buckets: List[List[Dict[int, object]]] = [
            [dict() for _ in range(self.sets_per_skew)] for _ in range(2)
        ]
        self._skew_of_key: Dict[int, int] = {}
        self.relocations = 0

    def _index(self, skew: int, key: int) -> int:
        return mix(key, self._seeds[skew]) % self.sets_per_skew

    def _bucket(self, skew: int, key: int) -> Dict[int, object]:
        return self._buckets[skew][self._index(skew, key)]

    def __len__(self) -> int:
        return len(self._skew_of_key)

    def __contains__(self, key: int) -> bool:
        return key in self._skew_of_key

    @property
    def load_factor(self) -> float:
        """Fraction of total capacity occupied."""
        return len(self) / self.capacity

    def lookup(self, key: int) -> Optional[object]:
        """Return the value for ``key``, or ``None`` if absent.

        Models probing both skewed buckets in parallel (constant time in
        hardware; the paper charges 3-4 cycles).
        """
        skew = self._skew_of_key.get(key)
        if skew is None:
            return None
        return self._bucket(skew, key)[key]

    def insert(self, key: int, value: object) -> None:
        """Insert or update ``key`` -> ``value``.

        New keys go to the emptier of their two candidate buckets
        (power-of-two-choices); if both are full, residents are relocated
        to their alternate buckets, bounded by ``max_relocations``.
        """
        existing = self._skew_of_key.get(key)
        if existing is not None:
            self._bucket(existing, key)[key] = value
            return
        self._place(key, value, self.max_relocations)

    def _place(self, key: int, value: object, budget: int) -> None:
        candidates = [
            (len(self._bucket(skew, key)), skew) for skew in (0, 1)
        ]
        candidates.sort()
        occupancy, skew = candidates[0]
        if occupancy < self.ways:
            self._bucket(skew, key)[key] = value
            self._skew_of_key[key] = skew
            return
        if budget <= 0:
            raise TableOverflowError(
                f"CAT overflow at {len(self)}/{self.capacity} entries"
            )
        # Relocate a deterministic resident of the fuller-indexed bucket
        # to its alternate bucket, freeing a way for the new key.
        bucket = self._bucket(skew, key)
        victim_key = next(iter(bucket))
        victim_value = bucket.pop(victim_key)
        del self._skew_of_key[victim_key]
        self.relocations += 1
        bucket[key] = value
        self._skew_of_key[key] = skew
        self._place(victim_key, victim_value, budget - 1)

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present; return whether it was present."""
        skew = self._skew_of_key.pop(key, None)
        if skew is None:
            return False
        del self._bucket(skew, key)[key]
        return True

    def items(self) -> Iterator[Tuple[int, object]]:
        """Iterate over all (key, value) pairs (test/inspection helper)."""
        for skew_buckets in self._buckets:
            for bucket in skew_buckets:
                yield from bucket.items()

    def max_bucket_occupancy(self) -> int:
        """Largest bucket fill level (for overprovisioning analysis)."""
        return max(
            (len(bucket) for skew in self._buckets for bucket in skew),
            default=0,
        )
