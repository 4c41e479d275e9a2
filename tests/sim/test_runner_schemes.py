"""Suite-path coverage for the remaining scheme factories.

The heavy sweeps exercise AQUA and RRS; these tests run the victim
refresh and Blockhammer factories through the same simulator path on
single workloads, so every Table VI column has an end-to-end test.
"""

import pytest

from repro.sim import runner
from repro.sim.runner import run_hardened
from repro.workloads.spec import workload


class TestVictimRefreshSuitePath:
    def test_hot_workload_incurs_refresh_busy_time(self):
        result = run_hardened(
            runner.victim_refresh(1000), workload("roms"), epochs=1
        )
        assert result.migrations > 0
        assert result.busy_ns > 0
        assert result.slowdown > 1.0

    def test_cold_workload_unaffected(self):
        result = run_hardened(
            runner.victim_refresh(1000), workload("povray"), epochs=1
        )
        assert result.migrations == 0
        assert result.slowdown == pytest.approx(1.0)


class TestBlockhammerSuitePath:
    def test_hot_workload_pays_throttling(self):
        result = run_hardened(
            runner.blockhammer(1000), workload("lbm"), epochs=1
        )
        # lbm's 500+ rows exceed the blacklist threshold and then the
        # per-row quota spacing stretches their streams.
        assert result.peak_stall_ns > 0
        assert result.slowdown > 1.0

    def test_no_migrations_ever(self):
        result = run_hardened(
            runner.blockhammer(1000), workload("lbm"), epochs=1
        )
        assert result.migrations == 0
        assert result.busy_ns == 0.0

    def test_cold_workload_unaffected(self):
        result = run_hardened(
            runner.blockhammer(1000), workload("wrf"), epochs=1
        )
        assert result.peak_stall_ns == 0.0
        assert result.slowdown == pytest.approx(1.0)
