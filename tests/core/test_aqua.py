"""AQUA orchestrator: quarantine lifecycle end-to-end (Sec. IV)."""

import gc
import weakref

import pytest

from repro.core.aqua import AquaMitigation
from repro.core.memtables import LookupOutcome
from repro.core.quarantine import RqaExhaustedError

from tests.conftest import at_epoch, make_aqua_config


def hammer(scheme, row, times, now=0.0):
    """Issue ``times`` activations of ``row``; return the last result."""
    result = None
    for _ in range(times):
        result = scheme.access(row, now)
    return result


@pytest.fixture
def aqua():
    return AquaMitigation(make_aqua_config())  # T_RH=64, trigger at 32


class TestTranslation:
    def test_non_quarantined_row_is_identity(self, aqua):
        result = aqua.access(100, 0.0)
        assert result.physical_row == 100
        assert not result.migrated

    def test_out_of_range_row_rejected(self, aqua):
        with pytest.raises(ValueError):
            aqua.access(aqua.visible_rows, 0.0)

    def test_visible_rows_exclude_rqa(self, aqua):
        geometry = aqua.config.geometry
        assert aqua.visible_rows == geometry.rows_per_rank - 64


class TestQuarantine:
    def test_threshold_crossing_quarantines(self, aqua):
        result = hammer(aqua, 100, 32)
        assert result.migrated
        assert result.physical_row == aqua.rqa_base
        assert aqua.is_quarantined(100)
        assert aqua.locate(100) == aqua.rqa_base
        assert aqua.stats.migrations == 1

    def test_below_threshold_never_quarantines(self, aqua):
        hammer(aqua, 100, 31)
        assert not aqua.is_quarantined(100)
        assert aqua.stats.migrations == 0

    def test_accesses_route_to_quarantine(self, aqua):
        hammer(aqua, 100, 32)
        result = aqua.access(100, 0.0)
        assert result.physical_row == aqua.rqa_base

    def test_migration_busy_time(self, aqua):
        result = hammer(aqua, 100, 32)
        # One row move, no eviction: 1.37 us.
        assert result.busy_ns == pytest.approx(1370.0, rel=0.01)

    def test_migration_reports_written_rows(self, aqua):
        result = hammer(aqua, 100, 32)
        # Only the destination write is charged (the source read
        # restores the departing row, like a refresh).
        assert result.extra_activations == (aqua.rqa_base,)


class TestInternalMigration:
    def test_continued_hammering_moves_within_rqa(self, aqua):
        hammer(aqua, 100, 32)
        hammer(aqua, 100, 32)  # hammer the quarantine location
        assert aqua.internal_migrations == 1
        assert aqua.locate(100) == aqua.rqa_base + 1
        # The vacated slot is free but epoch-guarded.
        assert aqua.rqa.resident_row(0) is None

    def test_tracker_indexed_by_physical_row(self, aqua):
        # Property P3: after quarantine, counting continues at the new
        # physical location, so 32 *more* activations re-trigger.
        hammer(aqua, 100, 32)
        result = hammer(aqua, 100, 31)
        assert not result.migrated
        result = aqua.access(100, 0.0)
        assert result.migrated


class TestEpochBehaviour:
    def test_tracker_resets_at_epoch_boundary(self, aqua):
        hammer(aqua, 100, 31, now=at_epoch(0))
        # Crossing into epoch 1 resets the ART; 31 more do not trigger.
        result = hammer(aqua, 100, 31, now=at_epoch(1))
        assert not result.migrated
        assert aqua.stats.migrations == 0

    def test_quarantine_persists_across_epochs(self, aqua):
        hammer(aqua, 100, 32, now=at_epoch(0))
        assert aqua.is_quarantined(100)
        aqua.access(100, at_epoch(1))
        assert aqua.is_quarantined(100)

    def test_lazy_drain_evicts_stale_rows(self, aqua):
        # Fill all 64 slots in epoch 0, then trigger one quarantine in
        # epoch 1: the head wraps and drains the oldest stale row home.
        for row in range(64):
            hammer(aqua, 1000 + row, 32, now=at_epoch(0))
        assert aqua.rqa.occupancy() == 64
        result = hammer(aqua, 5000, 32, now=at_epoch(1))
        assert result.evicted
        assert not aqua.is_quarantined(1000)
        assert aqua.locate(1000) == 1000
        assert aqua.stats.evictions == 1
        # Eviction + install: 2.74 us on that access.
        assert result.busy_ns == pytest.approx(2740.0, rel=0.01)

    def test_rqa_exhaustion_raises(self, aqua):
        with pytest.raises(RqaExhaustedError):
            for row in range(65):
                hammer(aqua, 1000 + row, 32, now=at_epoch(0))


class TestDrainStale:
    def test_background_drain(self, aqua):
        for row in range(8):
            hammer(aqua, 1000 + row, 32, now=at_epoch(0))
        aqua.access(0, at_epoch(1))  # roll the epoch
        drained = aqua.drain_stale(max_rows=4)
        assert drained == 4
        assert aqua.rqa.occupancy() == 4
        assert not aqua.is_quarantined(1000)

    def test_drain_ignores_current_epoch_rows(self, aqua):
        hammer(aqua, 100, 32, now=at_epoch(0))
        assert aqua.drain_stale() == 0


class TestDataIntegrity:
    def test_data_follows_row_through_quarantine(self, aqua):
        aqua.data.write(100, "payload")
        hammer(aqua, 100, 32)
        assert aqua.data.read(aqua.locate(100)) == "payload"
        assert aqua.data.read(100) is None

    def test_data_returns_home_on_eviction(self, aqua):
        aqua.data.write(1000, "homeward")
        for row in range(64):
            hammer(aqua, 1000 + row, 32, now=at_epoch(0))
        hammer(aqua, 5000, 32, now=at_epoch(1))
        assert aqua.data.read(1000) == "homeward"


class TestMemoryMappedMode:
    def test_quarantine_with_memory_mapped_tables(self):
        aqua = AquaMitigation(make_aqua_config(table_mode="memory-mapped"))
        hammer(aqua, 100, 32)
        assert aqua.is_quarantined(100)
        result = aqua.access(100, 0.0)
        assert result.physical_row == aqua.rqa_base
        assert result.lookup_outcome in (
            LookupOutcome.CACHE_HIT,
            LookupOutcome.DRAM_ACCESS,
        )

    def test_lookup_breakdown_fractions(self):
        aqua = AquaMitigation(make_aqua_config(table_mode="memory-mapped"))
        hammer(aqua, 100, 32)
        hammer(aqua, 200, 10)
        breakdown = aqua.lookup_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown[LookupOutcome.BLOOM_FILTERED] > 0

    def test_table_dram_busy_accumulates(self):
        aqua = AquaMitigation(make_aqua_config(table_mode="memory-mapped"))
        hammer(aqua, 100, 32)
        assert aqua.table_dram_busy_ns() > 0

    def test_sram_mode_has_no_table_dram(self, aqua):
        hammer(aqua, 100, 32)
        assert aqua.table_dram_busy_ns() == 0.0


class TestTableRowProtection:
    def test_hammered_table_row_is_quarantined(self):
        # Sec. VI-B: rows storing the FPT/RPT are themselves protected.
        aqua = AquaMitigation(make_aqua_config(table_mode="memory-mapped"))
        table_row = aqua.config.table_base_row
        aqua._observe_table_row(table_row, count=32)
        assert aqua.table_row_quarantines == 1
        assert aqua._pinned_fpt[table_row] >= aqua.rqa_base

    def test_table_row_internal_migration(self):
        aqua = AquaMitigation(make_aqua_config(table_mode="memory-mapped"))
        table_row = aqua.config.table_base_row
        aqua._observe_table_row(table_row, count=32)
        first = aqua._pinned_fpt[table_row]
        aqua._observe_table_row(table_row, count=32)
        assert aqua._pinned_fpt[table_row] != first
        assert aqua.table_row_quarantines == 2


class TestBatchEquivalence:
    def test_batched_access_matches_singles(self):
        single = AquaMitigation(make_aqua_config())
        batched = AquaMitigation(make_aqua_config())
        for _ in range(40):
            single.access(100, 0.0)
        batched.access_batch(100, 40, 0.0)
        assert single.is_quarantined(100) == batched.is_quarantined(100)
        assert single.stats.migrations == batched.stats.migrations
        assert single.locate(100) == batched.locate(100)


class TestStorage:
    def test_sram_mode_storage(self, aqua):
        assert aqua.sram_bytes() > 8 * 1024  # at least the copy-buffer

    def test_memory_mapped_smaller_at_scale(self):
        from repro.core.config import AquaConfig

        sram = AquaMitigation(AquaConfig(table_mode="sram"))
        mm = AquaMitigation(AquaConfig(table_mode="memory-mapped"))
        assert mm.sram_bytes() < sram.sram_bytes()
        # Sec. V-G: ~41 KB total for mapping + migration structures.
        assert mm.sram_bytes() == pytest.approx(41 * 1024, rel=0.05)


class TestLifetime:
    @pytest.mark.parametrize("table_mode", ["sram", "memory-mapped"])
    def test_untraced_scheme_freed_without_cycle_collector(self, table_mode):
        # A sweep worker runs point after point: a scheme caught in a
        # reference cycle keeps its tables alive until the next full
        # collection and raises the worker's peak memory.
        scheme = AquaMitigation(make_aqua_config(table_mode=table_mode))
        hammer(scheme, 100, 40)
        ref = weakref.ref(scheme)
        gc.disable()
        try:
            del scheme
            assert ref() is None
        finally:
            gc.enable()
