"""Experiment runner: factories, one hardened run, aggregates."""

import pytest

from repro.parallel import expand_grid, run_sweep_parallel
from repro.sim import runner
from repro.sim.runner import all_workloads, gmean_slowdown, run_hardened
from repro.workloads.spec import workload


class TestFactories:
    def test_aqua_factories_build_fresh_instances(self):
        factory = runner.aqua_sram(1000)
        a, b = factory(), factory()
        assert a is not b
        assert a.config.table_mode == "sram"
        assert runner.aqua_memory_mapped(1000)().config.table_mode == (
            "memory-mapped"
        )

    def test_threshold_plumbs_through(self):
        assert runner.rrs(2000)().swap_threshold == 333
        assert runner.blockhammer(2000)().quota == 1000
        assert runner.victim_refresh(2000)().threshold == 1000

    def test_baseline_factory(self):
        assert runner.baseline()().name == "baseline"


class TestSuite:
    def test_all_workloads_is_34(self):
        assert len(all_workloads()) == 34
        assert len(all_workloads(spec_only=True)) == 18

    def test_cold_spec_run(self):
        result = run_hardened(
            runner.aqua_sram(1000), workload("wrf"), epochs=1
        )
        assert result.workload == "wrf"
        assert result.migrations == 0
        assert result.slowdown == pytest.approx(1.0, abs=1e-6)

    def test_sweep_and_gmean_aggregate(self):
        points = expand_grid(["aqua-sram"], ["wrf", "xz"], epochs=1)
        results = run_sweep_parallel(points).by_scheme()["aqua-sram"]
        assert list(results) == ["wrf", "xz"]
        assert gmean_slowdown(results) >= 1.0

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            gmean_slowdown({})
