"""Forward-Pointer Table: SRAM CAT variant and in-DRAM variant."""

import pytest

from repro.core.cat import TableOverflowError
from repro.core.fpt import DramForwardPointerTable, ForwardPointerTable


class TestSramFpt:
    def test_lookup_insert_remove(self):
        fpt = ForwardPointerTable(capacity=256)
        assert fpt.lookup(5) is None
        fpt.insert(5, 17)
        assert fpt.lookup(5) == 17
        assert 5 in fpt
        assert fpt.remove(5)
        assert fpt.lookup(5) is None

    def test_update_slot(self):
        fpt = ForwardPointerTable(capacity=256)
        fpt.insert(5, 1)
        fpt.insert(5, 2)  # internal migration updates the pointer
        assert fpt.lookup(5) == 2
        assert len(fpt) == 1

    def test_hit_statistics(self):
        fpt = ForwardPointerTable(capacity=256)
        fpt.insert(1, 0)
        fpt.lookup(1)
        fpt.lookup(2)
        assert fpt.lookups == 2
        assert fpt.hits == 1

    def test_peek_does_not_count(self):
        fpt = ForwardPointerTable(capacity=256)
        fpt.insert(5, 17)
        assert fpt.peek(5) == 17
        assert fpt.peek(6) is None
        assert fpt.lookups == 0
        assert fpt.hits == 0

    def test_max_valid_guard(self):
        fpt = ForwardPointerTable(capacity=256, max_valid=2)
        fpt.insert(1, 0)
        fpt.insert(2, 1)
        with pytest.raises(TableOverflowError):
            fpt.insert(3, 2)

    def test_negative_slot_rejected(self):
        fpt = ForwardPointerTable(capacity=256)
        with pytest.raises(ValueError):
            fpt.insert(1, -1)

    def test_sram_bytes_matches_paper(self):
        # Sec. IV-C: 32K-entry FPT is 108 KB.
        size_kb = ForwardPointerTable.sram_bytes(32 * 1024) / 1024
        assert size_kb == pytest.approx(108, rel=0.05)


class TestDramFpt:
    def test_entry_per_row_layout(self):
        table = DramForwardPointerTable(total_rows=2 * 1024 * 1024)
        # Sec. V-A: 4 MB of DRAM for 2M rows.
        assert table.dram_bytes == 4 * 1024 * 1024
        assert table.entries_per_line == 32

    def test_line_of_groups_32_rows(self):
        table = DramForwardPointerTable(total_rows=1024)
        assert table.line_of(0) == table.line_of(31)
        assert table.line_of(32) == 1

    def test_read_write_counts_dram_accesses(self):
        table = DramForwardPointerTable(total_rows=1024)
        table.write(5, 9)
        assert table.read(5) == 9
        assert table.dram_reads == 1
        assert table.dram_writes == 1

    def test_peek_is_free(self):
        table = DramForwardPointerTable(total_rows=1024)
        table.write(5, 9)
        assert table.peek(5) == 9
        assert table.dram_reads == 0

    def test_invalidate_with_none(self):
        table = DramForwardPointerTable(total_rows=1024)
        table.write(5, 9)
        table.write(5, None)
        assert table.peek(5) is None
        assert len(table) == 0

    def test_valid_in_line(self):
        table = DramForwardPointerTable(total_rows=1024)
        table.write(0, 1)
        table.write(31, 2)
        table.write(32, 3)
        assert table.valid_in_line(0) == 2
        assert table.valid_in_line(1) == 1

    def test_out_of_range_rejected(self):
        table = DramForwardPointerTable(total_rows=16)
        with pytest.raises(ValueError):
            table.read(16)
