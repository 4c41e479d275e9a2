"""Reverse-Pointer Table: slot bookkeeping and epoch retention."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quarantine import RowQuarantineArea, RqaExhaustedError
from repro.core.rpt import ReversePointerTable, RptEntry


@pytest.fixture
def rpt():
    return ReversePointerTable(num_slots=8)


class TestInstallInvalidate:
    def test_install_and_resident(self, rpt):
        rpt.install(3, row_id=42, epoch=1)
        assert rpt.is_valid(3)
        assert rpt.resident_row(3) == 42
        assert rpt.entry(3).epoch == 1

    def test_invalidate_returns_row(self, rpt):
        rpt.install(3, 42, 1)
        assert rpt.invalidate(3) == 42
        assert not rpt.is_valid(3)
        assert rpt.resident_row(3) is None

    def test_invalidate_empty_slot(self, rpt):
        assert rpt.invalidate(0) is None

    def test_epoch_retained_after_invalidate(self, rpt):
        # The no-intra-epoch-reuse rule applies to freed slots too.
        rpt.install(3, 42, 7)
        rpt.invalidate(3)
        assert rpt.entry(3).epoch == 7

    def test_valid_count(self, rpt):
        rpt.install(0, 1, 0)
        rpt.install(1, 2, 0)
        rpt.invalidate(0)
        assert rpt.valid_count() == 1


class TestValidation:
    def test_slot_bounds(self, rpt):
        with pytest.raises(ValueError):
            rpt.entry(8)
        with pytest.raises(ValueError):
            rpt.install(-1, 0, 0)

    def test_negative_row_rejected(self, rpt):
        with pytest.raises(ValueError):
            rpt.install(0, -5, 0)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            ReversePointerTable(0)


class TestStorageModel:
    def test_sram_bytes_matches_paper(self):
        # Sec. IV-C: 23K entries at 22 bits each ~= 64 KB.
        size_kb = ReversePointerTable.sram_bytes(23_053, 21) / 1024
        assert size_kb == pytest.approx(64, rel=0.05)

    def test_dram_bytes_matches_paper(self):
        # Sec. V-A: RPT in DRAM is ~0.1 MB.
        size_mb = ReversePointerTable.dram_bytes(23_053) / (1024 * 1024)
        assert size_mb == pytest.approx(0.1, rel=0.2)


class _EagerRpt:
    """The RPT as a list of one live entry per slot, all built up front:
    the reference the array-backed table must match."""

    def __init__(self, num_slots):
        self.num_slots = num_slots
        self.entries = [RptEntry() for _ in range(num_slots)]

    def entry(self, slot):
        return self.entries[slot]

    def install(self, slot, row_id, epoch):
        entry = self.entries[slot]
        entry.valid, entry.row_id, entry.epoch = True, row_id, epoch

    def invalidate(self, slot):
        entry = self.entries[slot]
        if not entry.valid:
            return None
        row, entry.valid, entry.row_id = entry.row_id, False, -1
        return row

    def resident_row(self, slot):
        entry = self.entries[slot]
        return entry.row_id if entry.valid else None

    def valid_count(self):
        return sum(entry.valid for entry in self.entries)


_SLOTS = 6

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"),
            st.integers(0, _SLOTS - 1),
            st.integers(0, 1000),
            st.integers(0, 3),
        ),
        st.tuples(st.just("invalidate"), st.integers(0, _SLOTS - 1)),
        st.tuples(
            st.just("allocate"), st.integers(0, 1000), st.integers(0, 3)
        ),
        st.tuples(st.just("release"), st.integers(0, _SLOTS - 1)),
    ),
    max_size=40,
)


def _outcome(call):
    try:
        return call()
    except RqaExhaustedError as exc:
        return ("RqaExhaustedError", str(exc))


class TestMatchesEagerReference:
    @given(_ops)
    @settings(max_examples=300, deadline=None)
    def test_op_sequences(self, ops):
        table = RowQuarantineArea(_SLOTS, rpt=ReversePointerTable(_SLOTS))
        eager = RowQuarantineArea(_SLOTS, rpt=_EagerRpt(_SLOTS))
        for op in ops:
            results = []
            for rqa in (table, eager):
                if op[0] == "install":
                    call = lambda: rqa.rpt.install(*op[1:])  # noqa: E731
                elif op[0] == "invalidate":
                    call = lambda: rqa.rpt.invalidate(op[1])  # noqa: E731
                elif op[0] == "allocate":
                    call = lambda: rqa.allocate(*op[1:])  # noqa: E731
                else:
                    call = lambda: rqa.release(op[1])  # noqa: E731
                results.append(_outcome(call))
            assert results[0] == results[1]
            assert table.head == eager.head
            for slot in range(_SLOTS):
                assert table.rpt.entry(slot) == eager.rpt.entry(slot)
                assert table.rpt.is_valid(slot) == eager.rpt.entry(slot).valid
                assert table.resident_row(slot) == eager.resident_row(slot)
            assert table.occupancy() == eager.occupancy()
            for epoch in range(5):
                assert table.stale_slots(epoch) == eager.stale_slots(epoch)
                assert table.head_blocked(epoch) == eager.head_blocked(epoch)

    def test_untouched_slot_reads_invalid(self):
        rpt = ReversePointerTable(23_053)
        entry = rpt.entry(23_052)
        assert (entry.valid, entry.row_id, entry.epoch) == (False, -1, -1)
        assert rpt.valid_count() == 0
