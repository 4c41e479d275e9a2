"""Resettable grouped bloom filter (Sec. V-B)."""

import pytest

from repro.core.bloom import ResettableBloomFilter


@pytest.fixture
def bloom():
    return ResettableBloomFilter(total_rows=256, group_size=16)


class TestSoundness:
    def test_clear_bit_is_definitive(self, bloom):
        # bit=0 must NEVER hide a quarantined row (no false negatives).
        bloom.on_insert(17)
        for row in range(256):
            if bloom.group_of(row) == bloom.group_of(17):
                assert bloom.maybe_quarantined(row)
        assert not bloom.maybe_quarantined(0)

    def test_group_sharing_causes_false_positives(self, bloom):
        bloom.on_insert(16)  # group 1
        assert bloom.maybe_quarantined(17)  # same group: maybe

    def test_queries_counted(self, bloom):
        bloom.maybe_quarantined(0)
        bloom.maybe_quarantined(1)
        assert bloom.queries == 2
        assert bloom.filtered == 2
        assert bloom.filter_rate == 1.0


class TestResettability:
    def test_bit_clears_when_group_empties(self, bloom):
        bloom.on_insert(17)
        bloom.on_invalidate(17)
        assert not bloom.maybe_quarantined(17)

    def test_bit_persists_while_group_nonempty(self, bloom):
        bloom.on_insert(16)
        bloom.on_insert(17)
        bloom.on_invalidate(16)
        assert bloom.maybe_quarantined(17)
        bloom.on_invalidate(17)
        assert not bloom.maybe_quarantined(17)

    def test_unmatched_invalidate_rejected(self, bloom):
        with pytest.raises(ValueError):
            bloom.on_invalidate(3)

    def test_positive_groups_follow_the_bits(self, bloom):
        bloom.on_insert(16)
        bloom.on_insert(200)
        bloom.on_insert(201)
        bloom.on_invalidate(16)
        assert set(bloom.positive_groups()) == {200 // 16}

    def test_group_valid_count(self, bloom):
        bloom.on_insert(16)
        bloom.on_insert(18)
        assert bloom.group_valid_count(17) == 2


class TestSizing:
    def test_default_design_point(self):
        # Sec. V-B: 2M rows / 16-row groups = 128K entries = 16 KB.
        bloom = ResettableBloomFilter(2 * 1024 * 1024, group_size=16)
        assert bloom.num_groups == 128 * 1024
        assert bloom.sram_bytes == 16 * 1024

    def test_set_groups(self, bloom):
        bloom.on_insert(0)
        bloom.on_insert(1)  # same group
        bloom.on_insert(200)
        assert bloom.set_groups() == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ResettableBloomFilter(0)
        with pytest.raises(ValueError):
            ResettableBloomFilter(16, group_size=0)

    def test_out_of_range_row(self, bloom):
        with pytest.raises(ValueError):
            bloom.group_of(256)
