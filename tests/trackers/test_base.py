"""Tracker base class contracts."""

import pytest

from repro.trackers.base import PerBankTracker
from repro.trackers.exact import ExactTracker
from repro.trackers.misra_gries import MisraGriesBank


class TestValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            ExactTracker(threshold=0)

    def test_per_bank_needs_banks(self):
        with pytest.raises(ValueError):
            PerBankTracker(
                threshold=5,
                num_banks=0,
                bank_of=lambda r: 0,
                factory=lambda t: ExactTracker(t),
            )


class TestDefaultBatch:
    def test_default_observe_batch_loops(self):
        tracker = ExactTracker(threshold=3)
        # The base-class default (loop over observe) must agree with
        # the override; exercise it via super().
        crossings = super(ExactTracker, tracker).observe_batch(1, 7)
        assert crossings == 2
        assert tracker.estimate(1) == 7

    def test_negative_batch_rejected(self):
        tracker = MisraGriesBank(threshold=3, capacity=4)
        with pytest.raises(ValueError):
            tracker.observe_batch(1, -2)

    def test_zero_batch_is_noop(self):
        tracker = MisraGriesBank(threshold=3, capacity=4)
        assert tracker.observe_batch(1, 0) == 0
        assert tracker.estimate(1) == 0


class TestPerBankStats:
    def test_observations_counted_at_both_levels(self):
        tracker = PerBankTracker(
            threshold=5,
            num_banks=2,
            bank_of=lambda r: r % 2,
            factory=lambda t: ExactTracker(t),
        )
        tracker.observe_batch(0, 4)
        tracker.observe(1)
        assert tracker.observations == 5
        assert tracker.banks[0].observations == 4
        assert tracker.banks[1].observations == 1
