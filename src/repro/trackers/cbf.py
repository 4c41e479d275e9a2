"""Counting bloom filters and Blockhammer's dual-CBF RowBlocker.

Blockhammer (Yaglikci et al., HPCA 2021) does not keep exact per-row
counters: its *RowBlocker* estimates activation counts with a pair of
counting bloom filters.  A CBF never under-counts (every hash bucket is
incremented, the estimate is the minimum over buckets), so blacklisting
is conservative: a row past the threshold is always caught, at the cost
of occasional over-throttling from hash aliasing.

Because a CBF cannot delete, Blockhammer uses **two** filters in
rotating roles: one *active* (counting and consulted) and one *shadow*
(counting only).  Every half refresh-window the roles swap and the
newly-active filter's history already covers the previous half-window,
so estimates span a full window without ever clearing live state.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hashing import mix
from repro.dram.timing import DDR4Timing, DDR4_2400


class CountingBloomFilter:
    """k-hash counting bloom filter over row addresses."""

    def __init__(
        self, counters: int = 1024, hashes: int = 4, seed: int = 0xCBF0
    ) -> None:
        if counters < 1 or hashes < 1:
            raise ValueError("counters and hashes must be >= 1")
        self.num_counters = counters
        self.num_hashes = hashes
        self._seeds = [mix(seed, i * 0x9E37) for i in range(hashes)]
        self._counters = np.zeros(counters, dtype=np.int64)

    def _buckets(self, row_id: int) -> List[int]:
        return [
            mix(row_id, seed) % self.num_counters for seed in self._seeds
        ]

    def increment(self, row_id: int, amount: int = 1) -> int:
        """Count ``amount`` activations; return the new estimate."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        estimate = None
        for bucket in self._buckets(row_id):
            self._counters[bucket] += amount
            value = int(self._counters[bucket])
            estimate = value if estimate is None else min(estimate, value)
        return estimate

    def estimate(self, row_id: int) -> int:
        """Never-undercounting activation estimate for ``row_id``."""
        return int(min(self._counters[b] for b in self._buckets(row_id)))

    def clear(self) -> None:
        """Reset all counters (role rotation)."""
        self._counters[:] = 0

    @property
    def sram_bytes(self) -> int:
        """2-byte counters."""
        return 2 * self.num_counters


class RowBlocker:
    """Dual-CBF activation estimator with half-window role rotation."""

    def __init__(
        self,
        counters: int = 1024,
        hashes: int = 4,
        timing: DDR4Timing = DDR4_2400,
        seed: int = 0xB10C,
    ) -> None:
        self.timing = timing
        self.interval_ns = timing.trefw_ns / 2.0
        self._filters = [
            CountingBloomFilter(counters, hashes, seed),
            CountingBloomFilter(counters, hashes, mix(seed, 1)),
        ]
        self._active = 0
        self._epoch_half = 0
        self.rotations = 0

    def _sync(self, now_ns: float) -> None:
        half = int(now_ns // self.interval_ns)
        while self._epoch_half < half:
            self._epoch_half += 1
            # The shadow filter (which has been counting through the
            # ending half-window) becomes active; the old active filter
            # clears and starts shadow duty.
            self._filters[self._active].clear()
            self._active ^= 1
            self.rotations += 1

    def observe(self, row_id: int, now_ns: float, amount: int = 1) -> int:
        """Count an activation; return the active-filter estimate."""
        self._sync(now_ns)
        self._filters[self._active ^ 1].increment(row_id, amount)
        return self._filters[self._active].increment(row_id, amount)

    def estimate(self, row_id: int, now_ns: float) -> int:
        self._sync(now_ns)
        return self._filters[self._active].estimate(row_id)

    @property
    def sram_bytes(self) -> int:
        return sum(f.sram_bytes for f in self._filters)
