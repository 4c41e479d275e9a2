"""Table backends: SRAM tables (Sec. IV) and memory-mapped tables (Sec. V).

Every memory access must resolve "where does this row live?".  The two
backends answer with different storage/latency trade-offs:

* :class:`SramTables` -- FPT (CAT) and RPT in SRAM, 172 KB per rank.
  Constant-latency lookups (3-4 cycles).
* :class:`MemoryMappedTables` -- FPT/RPT in DRAM, fronted by a 16 KB
  resettable bloom filter and a 16 KB FPT-Cache, ~32 KB of SRAM total.
  Lookups resolve through the filter chain of Fig. 8 and are classified
  into the four categories of Fig. 10: bloom-filtered, FPT-Cache hit,
  singleton-filtered, and DRAM access.

Both implement the same ``TableBackend`` interface consumed by the AQUA
orchestrator.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.bloom import ResettableBloomFilter
from repro.core.fpt import (
    DEFAULT_FPT_CAPACITY,
    DramForwardPointerTable,
    ForwardPointerTable,
)
from repro.core.fpt_cache import FptCache
from repro.core.rpt import ReversePointerTable
from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.faults import NULL_INJECTOR


class LookupOutcome(enum.Enum):
    """How an FPT lookup was resolved (the categories of Fig. 10)."""

    SRAM = "sram"
    BLOOM_FILTERED = "bloom_filtered"
    CACHE_HIT = "cache_hit"
    SINGLETON = "singleton"
    DRAM_ACCESS = "dram_access"


@dataclass
class TableLookup:
    """Result of resolving one row through the mapping tables."""

    slot: Optional[int]
    """RQA slot if the row is quarantined, else ``None``."""
    outcome: LookupOutcome
    latency_ns: float
    table_row: Optional[int] = None
    """Physical row of the in-DRAM FPT touched, if a DRAM access occurred."""
    dram_accesses: int = 0
    """In-DRAM FPT reads performed (batch lookups may count several)."""


class TableBackend(abc.ABC):
    """Interface the AQUA orchestrator uses to maintain row locations."""

    @abc.abstractmethod
    def lookup(self, row_id: int) -> TableLookup:
        """Resolve ``row_id`` to its quarantine slot (or none)."""

    @abc.abstractmethod
    def on_quarantine(self, row_id: int, slot: int) -> float:
        """Record ``row_id`` -> ``slot``; return table-update latency (ns)."""

    @abc.abstractmethod
    def on_release(self, row_id: int) -> float:
        """Invalidate ``row_id``'s mapping; return update latency (ns)."""

    @abc.abstractmethod
    def sram_bytes(self) -> int:
        """SRAM footprint of the backend's structures."""


class SramTables(TableBackend):
    """FPT and RPT held entirely in SRAM (Sec. IV-C)."""

    #: 3-4 memory-controller cycles at ~2.5 GHz (Sec. IV-G).
    LOOKUP_NS = 1.5

    def __init__(
        self,
        rqa_slots: int,
        fpt_capacity: int = DEFAULT_FPT_CAPACITY,
    ) -> None:
        self.fpt = ForwardPointerTable(capacity=fpt_capacity)
        self.rqa_slots = rqa_slots

    def lookup(self, row_id: int) -> TableLookup:
        slot = self.fpt.lookup(row_id)
        return TableLookup(
            slot=slot, outcome=LookupOutcome.SRAM, latency_ns=self.LOOKUP_NS
        )

    def lookup_batch(self, row_id: int, n: int) -> TableLookup:
        """Resolve ``n`` back-to-back accesses to ``row_id``."""
        lookup = self.lookup(row_id)
        if n > 1:
            self.fpt.lookups += n - 1
            if lookup.slot is not None:
                self.fpt.hits += n - 1
        return lookup

    def on_quarantine(self, row_id: int, slot: int) -> float:
        self.fpt.insert(row_id, slot)
        return self.LOOKUP_NS

    def on_release(self, row_id: int) -> float:
        self.fpt.remove(row_id)
        return self.LOOKUP_NS

    def sram_bytes(self) -> int:
        return ForwardPointerTable.sram_bytes(
            self.fpt.capacity
        ) + ReversePointerTable.sram_bytes(self.rqa_slots)


class MemoryMappedTables(TableBackend):
    """Bloom filter + FPT-Cache + in-DRAM FPT/RPT (Fig. 8)."""

    BLOOM_NS = 0.5
    CACHE_NS = 1.5

    def __init__(
        self,
        total_rows: int,
        rqa_slots: int,
        bloom_group_size: int = 16,
        fpt_cache_entries: int = 4096,
        table_base_row: Optional[int] = None,
        timing: DDR4Timing = DDR4_2400,
        row_bytes: int = 8 * 1024,
    ) -> None:
        self.total_rows = total_rows
        self.rqa_slots = rqa_slots
        self.bloom = ResettableBloomFilter(total_rows, bloom_group_size)
        self.cache = FptCache(
            num_entries=fpt_cache_entries, group_size=bloom_group_size
        )
        self.dram_fpt = DramForwardPointerTable(total_rows)
        self.table_base_row = table_base_row
        self.row_bytes = row_bytes
        #: One DRAM read: precharge + activate + CAS.
        self.dram_lookup_ns = timing.trp_ns + timing.trcd_ns + timing.tcl_ns
        self.rpt_dram_accesses = 0
        self.false_positive_dram_lookups = 0
        self.outcome_counts = {outcome: 0 for outcome in LookupOutcome}
        #: Fault-injection sink (attached by the owning scheme).  Two
        #: sites bite here: ``fpt_cache_corrupt`` drops a cached entry
        #: (detected corruption) and ``fpt_cache_miss`` forces the
        #: lookup past the cache -- both degrade to the in-DRAM FPT,
        #: never to a wrong mapping.
        self.faults = NULL_INJECTOR
        self.forced_misses = 0
        #: Simulated-time source for fault events (lent by the scheme).
        self.clock = lambda: 0.0

    # ---------------------------------------------------------------- helpers

    def table_row_of(self, row_id: int) -> Optional[int]:
        """Physical row storing the FPT line for ``row_id``.

        Returns ``None`` when the backend was built without a physical
        placement for the table (pure counting mode).
        """
        if self.table_base_row is None:
            return None
        line = self.dram_fpt.line_of(row_id)
        lines_per_row = self.row_bytes // DramForwardPointerTable.LINE_BYTES
        return self.table_base_row + line // lines_per_row

    def _group_rows(self, row_id: int) -> range:
        group = self.bloom.group_of(row_id)
        start = group * self.bloom.group_size
        return range(start, min(start + self.bloom.group_size, self.total_rows))

    def _refresh_group_singleton(self, row_id: int) -> None:
        """Recompute the singleton bit for ``row_id``'s group.

        If the group now has exactly one valid entry, mark that entry
        singleton (when cached); otherwise clear all its cached bits.
        """
        group = self.bloom.group_of(row_id)
        count = self.bloom.group_valid_count(row_id)
        self.cache.set_group_singleton(group, count == 1)

    # ----------------------------------------------------------------- lookup

    def lookup(self, row_id: int) -> TableLookup:
        if not self.bloom.maybe_quarantined(row_id):
            self.outcome_counts[LookupOutcome.BLOOM_FILTERED] += 1
            return TableLookup(
                slot=None,
                outcome=LookupOutcome.BLOOM_FILTERED,
                latency_ns=self.BLOOM_NS,
            )
        faults = self.faults
        forced_miss = False
        if faults.enabled:
            now = self.clock()
            if faults.inject("fpt_cache_corrupt", ts_ns=now, row=row_id):
                self.cache.corrupt(row_id)
            forced_miss = faults.inject("fpt_cache_miss", ts_ns=now, row=row_id)
            if forced_miss:
                self.forced_misses += 1
                self.cache.misses += 1
        slot = None if forced_miss else self.cache.lookup(row_id)
        if slot is not None:
            self.outcome_counts[LookupOutcome.CACHE_HIT] += 1
            return TableLookup(
                slot=slot,
                outcome=LookupOutcome.CACHE_HIT,
                latency_ns=self.BLOOM_NS + self.CACHE_NS,
            )
        if not forced_miss and self.cache.covered_by_singleton(row_id):
            self.outcome_counts[LookupOutcome.SINGLETON] += 1
            return TableLookup(
                slot=None,
                outcome=LookupOutcome.SINGLETON,
                latency_ns=self.BLOOM_NS + 2 * self.CACHE_NS,
            )
        slot = self.dram_fpt.read(row_id)
        self.outcome_counts[LookupOutcome.DRAM_ACCESS] += 1
        if slot is None:
            self.false_positive_dram_lookups += 1
            # The DRAM read returned the whole 64-byte FPT line, so if
            # the group holds exactly one valid entry we can install it
            # (singleton bit set) at no extra cost: future accesses to
            # any other row of this group will singleton-filter instead
            # of re-reading DRAM (Sec. V-D).
            if self.bloom.group_valid_count(row_id) == 1:
                for other in self._group_rows(row_id):
                    other_slot = self.dram_fpt.peek(other)
                    if other_slot is not None:
                        self.cache.install(other, other_slot, singleton=True)
                        break
        else:
            self.cache.install(
                row_id,
                slot,
                singleton=self.bloom.group_valid_count(row_id) == 1,
            )
        return TableLookup(
            slot=slot,
            outcome=LookupOutcome.DRAM_ACCESS,
            latency_ns=self.BLOOM_NS + 2 * self.CACHE_NS + self.dram_lookup_ns,
            table_row=self.table_row_of(row_id),
            dram_accesses=1,
        )

    def lookup_batch(self, row_id: int, n: int) -> TableLookup:
        """Resolve ``n`` back-to-back accesses to ``row_id``.

        Performs one real lookup; the remaining ``n - 1`` accesses are
        classified by what repeated accesses to the same row would see:
        bloom-filtered rows stay filtered; a quarantined row fetched
        from DRAM is cached, so its repeats hit the FPT-Cache; a
        bloom false positive with *no* valid entry has nothing to cache,
        so every repeat pays the DRAM lookup (the cost the singleton
        optimisation exists to kill).
        """
        first = self.lookup(row_id)
        rest = n - 1
        if rest <= 0:
            return first
        counts = self.outcome_counts
        if first.outcome is LookupOutcome.BLOOM_FILTERED:
            counts[LookupOutcome.BLOOM_FILTERED] += rest
            self.bloom.queries += rest
            self.bloom.filtered += rest
        elif first.outcome is LookupOutcome.SINGLETON:
            counts[LookupOutcome.SINGLETON] += rest
            self.bloom.queries += rest
            self.cache.misses += rest
            self.cache.singleton_filtered += rest
        elif first.slot is not None:
            # Cache hit, or a DRAM fetch that installed the entry:
            # repeats hit the FPT-Cache.
            counts[LookupOutcome.CACHE_HIT] += rest
            self.bloom.queries += rest
            self.cache.hits += rest
        elif self.bloom.group_valid_count(row_id) == 1:
            # False positive in a singleton group: the first DRAM read
            # installed the group's entry, so repeats singleton-filter.
            counts[LookupOutcome.SINGLETON] += rest
            self.bloom.queries += rest
            self.cache.misses += rest
            self.cache.singleton_filtered += rest
        else:
            # False positive in a multi-entry group: nothing cacheable
            # for this row, so every repeat pays the DRAM lookup.
            counts[LookupOutcome.DRAM_ACCESS] += rest
            self.bloom.queries += rest
            self.cache.misses += rest
            self.dram_fpt.dram_reads += rest
            self.false_positive_dram_lookups += rest
            first.dram_accesses += rest
        return first

    # ---------------------------------------------------------------- updates

    def on_quarantine(self, row_id: int, slot: int) -> float:
        already_mapped = self.dram_fpt.peek(row_id) is not None
        self.dram_fpt.write(row_id, slot)
        if not already_mapped:
            self.bloom.on_insert(row_id)
        self.rpt_dram_accesses += 1
        count = self.bloom.group_valid_count(row_id)
        self.cache.install(row_id, slot, singleton=count == 1)
        if count > 1:
            self.cache.set_group_singleton(self.bloom.group_of(row_id), False)
        return 2 * self.dram_lookup_ns  # FPT write + RPT write

    def on_release(self, row_id: int) -> float:
        if self.dram_fpt.peek(row_id) is None:
            return 0.0
        self.dram_fpt.write(row_id, None)
        self.bloom.on_invalidate(row_id)
        self.cache.invalidate(row_id)
        self.rpt_dram_accesses += 1
        self._refresh_group_singleton(row_id)
        return 2 * self.dram_lookup_ns

    # ------------------------------------------------------------------ stats

    def sram_bytes(self) -> int:
        return self.bloom.sram_bytes + self.cache.sram_bytes

    def lookup_breakdown(self) -> dict:
        """Fraction of lookups per outcome (the series of Fig. 10)."""
        total = sum(self.outcome_counts.values())
        if total == 0:
            return {outcome: 0.0 for outcome in LookupOutcome}
        return {
            outcome: count / total
            for outcome, count in self.outcome_counts.items()
        }
