"""Property tests: AQUA system invariants under arbitrary access streams.

These are the executable statements of the paper's design invariants:

* **Mapping consistency** -- FPT and RPT always agree (every valid RPT
  slot points back through the FPT, and vice versa).
* **Location uniqueness** -- no two logical rows resolve to the same
  physical row (accesses never alias).
* **Data integrity** -- a row's content survives any quarantine churn.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.aqua import AquaMitigation
from repro.core.memtables import SramTables
from repro.dram.refresh import EPOCH_NS

from tests.conftest import make_aqua_config


hot_rows = st.integers(min_value=100, max_value=119)


@st.composite
def access_streams(draw):
    """Bursty streams over 20 rows across up to 3 epochs."""
    stream = []
    epoch = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        row = draw(hot_rows)
        burst = draw(st.integers(min_value=1, max_value=40))
        if epoch < 2 and draw(st.integers(min_value=0, max_value=9)) == 0:
            epoch += 1
        stream.append((row, burst, epoch))
    return stream


def fpt_slot(aqua, row):
    if isinstance(aqua.tables, SramTables):
        return aqua.tables.fpt.peek(row)
    return aqua.tables.dram_fpt.peek(row)


def check_mapping_consistency(aqua):
    # Every valid RPT slot's row maps back to that slot through the FPT.
    seen_rows = set()
    for slot in range(aqua.rqa.num_slots):
        row = aqua.rqa.resident_row(slot)
        if row is None:
            continue
        assert row not in seen_rows, "row resident in two slots"
        seen_rows.add(row)
        if aqua._pinned_fpt.get(row) == aqua.rqa_base + slot:
            continue  # table row, mapped via the SRAM-pinned entries
        assert fpt_slot(aqua, row) == slot


@st.composite
def table_modes(draw):
    return draw(st.sampled_from(["sram", "memory-mapped"]))


class TestSystemInvariants:
    @given(access_streams(), table_modes())
    @settings(max_examples=100, deadline=None)
    def test_fpt_rpt_agree(self, stream, mode):
        aqua = AquaMitigation(make_aqua_config(table_mode=mode, rqa_slots=128))
        for row, burst, epoch in stream:
            aqua.access_batch(row, burst, epoch * EPOCH_NS + 1.0)
        check_mapping_consistency(aqua)

    @given(access_streams(), table_modes())
    @settings(max_examples=100, deadline=None)
    def test_locations_never_alias(self, stream, mode):
        aqua = AquaMitigation(make_aqua_config(table_mode=mode, rqa_slots=128))
        for row, burst, epoch in stream:
            aqua.access_batch(row, burst, epoch * EPOCH_NS + 1.0)
        locations = [aqua.locate(row) for row in range(100, 120)]
        assert len(set(locations)) == len(locations)

    @given(access_streams(), table_modes())
    @settings(max_examples=100, deadline=None)
    def test_data_integrity(self, stream, mode):
        aqua = AquaMitigation(make_aqua_config(table_mode=mode, rqa_slots=128))
        for row in range(100, 120):
            aqua.data.write(row, f"token-{row}")
        for row, burst, epoch in stream:
            aqua.access_batch(row, burst, epoch * EPOCH_NS + 1.0)
        for row in range(100, 120):
            assert aqua.data.read(aqua.locate(row)) == f"token-{row}"

    @given(access_streams())
    @settings(max_examples=60, deadline=None)
    def test_routed_physical_matches_locate(self, stream):
        aqua = AquaMitigation(make_aqua_config(rqa_slots=128))
        for row, burst, epoch in stream:
            result = aqua.access_batch(row, burst, epoch * EPOCH_NS + 1.0)
            assert result.physical_row == aqua.locate(row)
