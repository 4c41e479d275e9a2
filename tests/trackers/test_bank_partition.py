"""Epoch planning partitions rows by bank with one array call.

``PerBankTracker._by_bank`` maps a whole array of rows through
``bank_of`` at once.  Each scheme's map must give the same partition as
mapping the rows one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aqua import AquaMitigation
from repro.dram.address import AddressMapper
from repro.mitigations.rrs import RandomizedRowSwap
from repro.mitigations.victim_refresh import VictimRefresh
from repro.trackers.base import PerBankTracker
from repro.trackers.exact import ExactTracker
from tests.conftest import SMALL_GEOMETRY, make_aqua_config


def _aqua():
    return AquaMitigation(make_aqua_config()).tracker


def _rrs():
    return RandomizedRowSwap(
        rowhammer_threshold=1000, geometry=SMALL_GEOMETRY
    ).tracker


def _victim_refresh(policy):
    return lambda: VictimRefresh(
        geometry=SMALL_GEOMETRY,
        mapper=AddressMapper(SMALL_GEOMETRY, policy=policy),
    ).tracker


TRACKERS = {
    "aqua": _aqua,
    "rrs": _rrs,
    "victim-refresh-interleaved": _victim_refresh("interleaved"),
    "victim-refresh-blocked": _victim_refresh("blocked"),
    "victim-refresh-scrambled": _victim_refresh("scrambled"),
}

rows_strategy = st.lists(
    st.integers(0, SMALL_GEOMETRY.rows_per_rank - 1), max_size=200
)


@pytest.mark.parametrize("name", sorted(TRACKERS))
@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_array_partition_equals_per_row_partition(name, rows):
    tracker = TRACKERS[name]()
    array = np.array(rows, dtype=np.int64)
    got = [
        (tracker.banks.index(bank), idx.tolist())
        for bank, idx in tracker._by_bank(array)
    ]
    per_row = [tracker.bank_of(row) for row in rows]
    expected = [
        (i, [j for j, b in enumerate(per_row) if b == i])
        for i in range(len(tracker.banks))
        if i in per_row
    ]
    assert got == expected


def test_constant_map_puts_every_row_in_one_bank():
    tracker = PerBankTracker(
        threshold=5, num_banks=1, bank_of=lambda r: 0,
        factory=lambda t: ExactTracker(t),
    )
    ((bank, idx),) = tracker._by_bank(np.array([4, 9, 4], dtype=np.int64))
    assert bank is tracker.banks[0]
    assert idx.tolist() == [0, 1, 2]


class TestMapperArrayForm:
    @pytest.mark.parametrize("policy", ["interleaved", "blocked"])
    def test_matches_scalar_form(self, policy):
        mapper = AddressMapper(SMALL_GEOMETRY, policy=policy)
        rows = np.arange(0, SMALL_GEOMETRY.rows_per_rank, 97)
        assert mapper.bank_of(rows).tolist() == [
            mapper.bank_of(row) for row in rows.tolist()
        ]

    def test_empty_array(self):
        mapper = AddressMapper(SMALL_GEOMETRY)
        empty = np.empty(0, dtype=np.int64)
        assert mapper.bank_of(empty).tolist() == []

    @pytest.mark.parametrize("bad", [-1, SMALL_GEOMETRY.rows_per_rank])
    def test_out_of_range_row_rejected(self, bad):
        mapper = AddressMapper(SMALL_GEOMETRY)
        with pytest.raises(ValueError):
            mapper.bank_of(np.array([5, bad, 7]))
