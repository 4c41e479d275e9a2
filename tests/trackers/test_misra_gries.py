"""Misra-Gries tracker: Graphene trigger semantics (Sec. IV-B, IV-F)."""

import pytest

from repro.trackers.misra_gries import (
    MisraGriesBank,
    MisraGriesTracker,
    graphene_entries,
)


class TestProvisioning:
    def test_entries_follow_actmax_over_threshold(self):
        from repro.dram.timing import DDR4_2400

        assert graphene_entries(500) == DDR4_2400.act_max // 500
        assert graphene_entries(500) == pytest.approx(2720, abs=10)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            graphene_entries(0)


class TestBasicCounting:
    def test_trigger_at_threshold(self):
        bank = MisraGriesBank(threshold=10, capacity=8)
        fires = [bank.observe(1) for _ in range(10)]
        assert fires == [False] * 9 + [True]

    def test_trigger_repeats_at_multiples(self):
        bank = MisraGriesBank(threshold=10, capacity=8)
        fires = sum(bank.observe(1) for _ in range(30))
        assert fires == 3

    def test_estimate_tracks_count(self):
        bank = MisraGriesBank(threshold=10, capacity=8)
        for _ in range(7):
            bank.observe(5)
        assert bank.estimate(5) == 7
        assert bank.estimate(6) == 0

    def test_batch_equals_singles(self):
        single = MisraGriesBank(threshold=10, capacity=8)
        batched = MisraGriesBank(threshold=10, capacity=8)
        fires_single = sum(single.observe(1) for _ in range(25))
        fires_batched = batched.observe_batch(1, 25)
        assert fires_single == fires_batched
        assert single.estimate(1) == batched.estimate(1)


class TestSpill:
    def test_spill_grows_when_full(self):
        bank = MisraGriesBank(threshold=100, capacity=2)
        bank.observe(1)
        bank.observe(2)
        bank.observe(3)  # miss on full table
        assert bank.spill == 1

    def test_eviction_installs_with_spill_plus_one(self):
        bank = MisraGriesBank(threshold=100, capacity=2)
        bank.observe(1)
        bank.observe(2)
        # First miss: spill reaches min (1), evicts and installs at 2.
        bank.observe(3)
        assert bank.estimate(3) == 2
        assert len(bank) == 2

    def test_never_undercounts(self):
        # Misra-Gries guarantee: estimate >= true count for tracked rows,
        # and untracked rows have true count <= spill.
        bank = MisraGriesBank(threshold=1000, capacity=4)
        true_counts = {}
        stream = ([1] * 50 + [2] * 40 + [3, 4, 5, 6, 7] * 8) * 3
        for row in stream:
            bank.observe(row)
            true_counts[row] = true_counts.get(row, 0) + 1
        for row, true in true_counts.items():
            estimate = bank.estimate(row)
            if estimate:
                assert estimate >= true or bank.spill >= true - estimate
            else:
                assert true <= bank.spill + bank.min_count()

    def test_detection_guarantee_hot_row(self):
        # A row truly reaching the threshold always fires (property P1),
        # regardless of competing traffic.
        bank = MisraGriesBank(threshold=50, capacity=4)
        fired = False
        for i in range(49):
            bank.observe(100)
            bank.observe(1000 + i)  # interleaved cold misses
        fired = bank.observe(100)
        assert fired


class TestSpuriousMitigations:
    def test_spill_inherited_install_can_fire(self):
        # Sec. IV-F: installs inherit spill+1; when the spill crosses a
        # threshold multiple, the install fires without real ACTs.
        bank = MisraGriesBank(threshold=10, capacity=1)
        bank.observe(0)  # occupies the single slot
        fires = 0
        for row in range(1, 60):
            fires += bank.observe_batch(row, 1)
        assert bank.spurious_installs > 0
        assert fires >= bank.spurious_installs

    def test_no_spurious_when_table_large(self):
        bank = MisraGriesBank(threshold=10, capacity=128)
        for row in range(100):
            bank.observe(row)
        assert bank.spurious_installs == 0


class TestReset:
    def test_reset_clears_everything(self):
        bank = MisraGriesBank(threshold=10, capacity=2)
        for row in (1, 2, 3, 3, 3):
            bank.observe(row)
        bank.reset()
        assert bank.spill == 0
        assert len(bank) == 0
        assert bank.estimate(3) == 0
        assert bank.min_count() == 0


class TestPerBankComposition:
    def test_rows_route_to_their_bank(self):
        tracker = MisraGriesTracker(
            threshold=5, num_banks=4, entries_per_bank=8
        )
        for _ in range(5):
            tracker.observe(0)  # bank 0
        assert tracker.banks[0].estimate(0) == 5
        assert tracker.banks[1].estimate(0) == 0

    def test_trigger_counted_at_rank_level(self):
        tracker = MisraGriesTracker(
            threshold=5, num_banks=4, entries_per_bank=8
        )
        for _ in range(5):
            tracker.observe(1)
        assert tracker.triggers == 1

    def test_batch_observe_routes(self):
        tracker = MisraGriesTracker(
            threshold=5, num_banks=4, entries_per_bank=8
        )
        crossings = tracker.observe_batch(2, 12)
        assert crossings == 2
        assert tracker.banks[2].estimate(2) == 12
