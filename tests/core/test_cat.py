"""Collision-Avoidance Table: placement, relocation, overflow."""

import pytest

from repro.core.cat import CollisionAvoidanceTable, TableOverflowError
from repro.hashing import mix


def test_row_hash_values_are_pinned():
    # Placement in the CAT, the set-associative ablation and the CBFs
    # all derive from these values.
    assert mix(0, 0) == 0
    assert mix(1, 0x1234_5678) == 4030509934843969613
    assert mix(2**21 - 1, 0xCBF0) == 13344384613531722637
    assert mix(123456789, 0x5E7A) == 13942305642939247826


@pytest.fixture
def cat():
    return CollisionAvoidanceTable(capacity=128, ways=4)


class TestBasicMap:
    def test_insert_lookup(self, cat):
        cat.insert(10, "a")
        assert cat.lookup(10) == "a"
        assert 10 in cat
        assert len(cat) == 1

    def test_missing_key(self, cat):
        assert cat.lookup(99) is None
        assert 99 not in cat

    def test_update_in_place(self, cat):
        cat.insert(10, "a")
        cat.insert(10, "b")
        assert cat.lookup(10) == "b"
        assert len(cat) == 1

    def test_remove(self, cat):
        cat.insert(10, "a")
        assert cat.remove(10)
        assert cat.lookup(10) is None
        assert not cat.remove(10)

    def test_items_round_trip(self, cat):
        entries = {i: i * 2 for i in range(20)}
        for key, value in entries.items():
            cat.insert(key, value)
        assert dict(cat.items()) == entries


class TestLoadBehaviour:
    def test_fills_well_past_half(self):
        # Power-of-two-choices + relocation: a CAT holds ~80%+ load
        # without overflow (why 32K slots hold 23K entries, Sec. IV-C).
        cat = CollisionAvoidanceTable(capacity=1024, ways=8)
        target = int(1024 * 0.72)  # the paper's FPT ratio (23K/32K)
        for key in range(target):
            cat.insert(key * 7919, key)
        assert len(cat) == target

    def test_load_factor(self, cat):
        for key in range(64):
            cat.insert(key, key)
        assert cat.load_factor == pytest.approx(0.5)

    def test_overflow_raises_loudly(self):
        cat = CollisionAvoidanceTable(capacity=16, ways=2, max_relocations=4)
        with pytest.raises(TableOverflowError):
            for key in range(17):
                cat.insert(key, key)

    def test_max_bucket_occupancy_bounded_by_ways(self, cat):
        for key in range(100):
            cat.insert(key, key)
        assert cat.max_bucket_occupancy() <= 4


class TestRelocation:
    def test_relocations_preserve_entries(self):
        cat = CollisionAvoidanceTable(capacity=64, ways=2)
        inserted = {}
        for key in range(48):
            cat.insert(key, key + 1000)
            inserted[key] = key + 1000
        for key, value in inserted.items():
            assert cat.lookup(key) == value
        assert cat.relocations >= 0


class TestValidation:
    def test_too_small_capacity(self):
        with pytest.raises(ValueError):
            CollisionAvoidanceTable(capacity=4, ways=8)

    def test_determinism(self):
        a = CollisionAvoidanceTable(capacity=128, ways=4, seed=7)
        b = CollisionAvoidanceTable(capacity=128, ways=4, seed=7)
        for key in range(60):
            a.insert(key, key)
            b.insert(key, key)
        assert dict(a.items()) == dict(b.items())
