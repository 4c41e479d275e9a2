"""Hardened runs and sweeps: timeouts, retries, failure ledger, resume
equality, seed-determined fault schedules."""

import time

import pytest

from repro.errors import RunTimeoutError
from repro.faults import FaultSpec
from repro.parallel import expand_grid, run_sweep_parallel
from repro.sim import runner
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.system import SystemSimulator
from repro.workloads.spec import workload


WORKLOADS = ["xz", "wrf"]
META = {"purpose": "test"}


def flaky_factory(failures_left):
    """A factory whose scheme run raises ``failures_left`` times."""
    state = {"left": failures_left}
    real = runner.aqua_sram(1000)

    def build(telemetry=None):
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("synthetic crash")
        return real(telemetry=telemetry) if telemetry else real()

    return build


class TestRunHardened:
    def test_plain_run_matches_direct_simulation(self):
        target = workload("xz")
        direct = SystemSimulator(runner.aqua_sram(1000)()).run(target)
        hardened = runner.run_hardened(runner.aqua_sram(1000), target)
        assert hardened.to_dict() == direct.to_dict()

    def test_timeout_raises_run_timeout_error(self):
        def hang(telemetry=None):
            time.sleep(5.0)

        with pytest.raises(RunTimeoutError):
            runner.run_hardened(
                hang, workload("xz"), timeout_s=0.1, retries=0
            )

    def test_timeout_is_retried_as_transient(self):
        calls = {"n": 0}
        real = runner.aqua_sram(1000)

        def slow_once(telemetry=None):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(5.0)
            return real()

        result = runner.run_hardened(
            slow_once, workload("xz"),
            timeout_s=0.2, retries=1, backoff_s=0.01,
        )
        assert calls["n"] == 2
        assert result.workload == "xz"

    def test_non_transient_errors_propagate_immediately(self):
        factory = flaky_factory(failures_left=99)
        with pytest.raises(RuntimeError, match="synthetic crash"):
            runner.run_hardened(
                factory, workload("xz"), retries=3, backoff_s=0.01
            )


class TestRunSweep:
    """The failure ledger and checkpoint resume of the sweep engine."""

    @pytest.fixture
    def bad_scheme(self):
        def bad_builder(trh, **kwargs):
            return flaky_factory(failures_left=99)

        runner.register_scheme_builder("bad", bad_builder)
        yield "bad"
        runner.SCHEME_BUILDERS.pop("bad", None)

    def test_failures_are_ledgered_not_fatal(self, bad_scheme):
        points = expand_grid(["aqua-sram", bad_scheme], WORKLOADS)
        report = run_sweep_parallel(points)
        assert len(report.results) == 2  # both 'aqua-sram' runs landed
        assert len(report.failures) == 2
        assert {f.scheme for f in report.failures} == {bad_scheme}
        assert all(
            "synthetic crash" in f.error for f in report.failures
        )

    def test_checkpointed_sweep_resumes_without_rerunning(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with SweepCheckpoint.create(path, META) as checkpoint:
            run_sweep_parallel(
                expand_grid(["aqua-sram"], WORKLOADS[:1]),
                checkpoint=checkpoint,
            )
        with SweepCheckpoint.resume(path, META) as checkpoint:
            statuses = []
            report = run_sweep_parallel(
                expand_grid(["aqua-sram"], WORKLOADS),
                checkpoint=checkpoint,
                progress=lambda s, w, st: statuses.append((w, st)),
            )
        assert report.resumed == 1
        assert statuses == [("xz", "resumed"), ("wrf", "ok")]

    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        """The acceptance property behind ``sweep --resume``."""
        straight = str(tmp_path / "straight.jsonl")
        with SweepCheckpoint.create(straight, META) as checkpoint:
            run_sweep_parallel(
                expand_grid(["aqua-sram"], WORKLOADS), checkpoint=checkpoint
            )
        interrupted = str(tmp_path / "interrupted.jsonl")
        with SweepCheckpoint.create(interrupted, META) as checkpoint:
            # "Crash" after the first workload...
            run_sweep_parallel(
                expand_grid(["aqua-sram"], WORKLOADS[:1]),
                checkpoint=checkpoint,
            )
        # ...then resume with the full list.
        with SweepCheckpoint.resume(interrupted, META) as checkpoint:
            run_sweep_parallel(
                expand_grid(["aqua-sram"], WORKLOADS), checkpoint=checkpoint
            )
        assert open(interrupted).read() == open(straight).read()


class TestFaultScheduleReproducibility:
    """Seed-determined fault schedules on a throttled small AQUA."""

    SMALL_AQUA = {
        "rqa_full_policy": "throttle",
        "rqa_slots": 64,
        "tracker_entries_per_bank": 64,
    }

    def points(self, workloads=WORKLOADS):
        return expand_grid(
            ["aqua-sram"], workloads, thresholds=(64,),
            scheme_kwargs=self.SMALL_AQUA,
        )

    def test_same_seed_byte_identical_checkpoint(self, tmp_path):
        """Same seed -> same fault schedule -> byte-identical results."""
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = str(tmp_path / name)
            paths.append(path)
            with SweepCheckpoint.create(path, META) as checkpoint:
                report = run_sweep_parallel(
                    self.points(),
                    checkpoint=checkpoint,
                    fault_spec=FaultSpec(seed=7, fault_rate=1e-3),
                )
            assert not report.failures
            assert any(fault["counts"] for fault in report.faults.values())
        assert open(paths[0]).read() == open(paths[1]).read()

    def test_different_seed_changes_the_schedule(self):
        def run(seed):
            report = run_sweep_parallel(
                self.points(WORKLOADS[:1]),
                fault_spec=FaultSpec(seed=seed, fault_rate=5e-3),
            )
            return {
                key: fault["digest"] for key, fault in report.faults.items()
            }

        first, second = run(7), run(8)
        assert set(first) == set(second)
        assert first != second
