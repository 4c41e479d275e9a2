"""Parallel sweep executor: determinism, crash ledger, checkpoint merge.

The determinism tests assert *byte* identity between ``jobs=1`` and
``jobs=N`` (the invariant the CI parallel-determinism step re-proves
on every PR); the crash tests rely on ``fork``-inherited scheme
registrations and are skipped on spawn platforms.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.parallel import expand_grid, resolve_workload, run_sweep_parallel
from repro.sim import checkpoint as ckpt
from repro.sim import runner
from repro.sim.checkpoint import SweepCheckpoint
from repro.telemetry import Telemetry
from repro.workloads.mixes import all_mixes


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="relies on fork inheritance of scheme registrations",
)


def small_points(workloads=("xz", "wrf"), epochs=1, seed=7, **kwargs):
    return expand_grid(
        ["aqua-sram"], list(workloads), epochs=epochs, seed=seed, **kwargs
    )


def canonical(report) -> str:
    """Byte-stable rendering of a report's results and failures."""
    return json.dumps(
        {
            "results": {
                "/".join(key): result.to_dict()
                for key, result in report.results.items()
            },
            "failures": [
                (f.scheme, f.workload, f.error) for f in report.failures
            ],
        },
        sort_keys=True,
    )


class TestGrid:
    def test_expansion_order_is_scheme_threshold_workload(self):
        points = expand_grid(
            ["aqua-sram", "victim-refresh"], ["xz", "gcc"],
            thresholds=(1000, 2000),
        )
        assert [(p.label, p.workload) for p in points] == [
            ("aqua-sram@1000", "xz"), ("aqua-sram@1000", "gcc"),
            ("aqua-sram@2000", "xz"), ("aqua-sram@2000", "gcc"),
            ("victim-refresh@1000", "xz"), ("victim-refresh@1000", "gcc"),
            ("victim-refresh@2000", "xz"), ("victim-refresh@2000", "gcc"),
        ]

    def test_single_threshold_keeps_bare_labels(self):
        points = expand_grid(["aqua-mm"], ["xz"])
        assert points[0].label == "aqua-mm"
        assert points[0].key == ("aqua-mm", "xz")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            expand_grid(["doom"], ["xz"])

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            expand_grid(["aqua-mm"], ["xz"], thresholds=())

    def test_resolve_workload_spec_and_mix(self):
        assert resolve_workload("xz", seed=7).name == "xz"
        mix_name = all_mixes()[0].name
        assert resolve_workload(mix_name).name == mix_name
        with pytest.raises(ConfigError, match="unknown workload"):
            resolve_workload("doom")


class TestDeterminism:
    def test_parallel_results_byte_identical_to_serial(self):
        points = small_points()
        serial = run_sweep_parallel(points, jobs=1)
        parallel = run_sweep_parallel(points, jobs=2)
        assert canonical(serial) == canonical(parallel)

    def test_merge_order_is_grid_order_not_completion_order(self):
        # gcc takes ~10x longer than xz, so with 2 workers xz finishes
        # first; the merged dict must still lead with gcc.
        points = expand_grid(["aqua-sram"], ["gcc", "xz"], epochs=1, seed=7)
        report = run_sweep_parallel(points, jobs=2)
        assert list(report.results) == [p.key for p in points]

    def test_instrumented_runs_match_too(self):
        points = small_points(workloads=("xz",))
        serial = run_sweep_parallel(points, jobs=1, instrument=True)
        parallel = run_sweep_parallel(points, jobs=2, instrument=True)
        assert canonical(serial) == canonical(parallel)
        key = points[0].key
        assert serial.metrics[key] == parallel.metrics[key]


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            run_sweep_parallel(small_points(), jobs=0)

    def test_duplicate_run_points_rejected(self):
        points = small_points(workloads=("xz",))
        with pytest.raises(ConfigError, match="duplicate"):
            run_sweep_parallel(points + points, jobs=1)


class TestFaultSpecParallelism:
    """Chaos under parallelism: fault seeds derive per run point."""

    def test_fault_schedule_independent_of_jobs(self):
        points = expand_grid(
            ["aqua-sram"], ["xz", "gcc"], epochs=1, seed=7,
            scheme_kwargs={"rqa_full_policy": "throttle"},
        )
        spec = FaultSpec(seed=7, fault_rate=0.01)
        serial = run_sweep_parallel(points, jobs=1, fault_spec=spec)
        parallel = run_sweep_parallel(points, jobs=2, fault_spec=spec)
        assert canonical(serial) == canonical(parallel)
        assert serial.faults == parallel.faults
        # The schedules actually fired (rate high enough to matter).
        assert any(
            fault["counts"] for fault in serial.faults.values()
        )

    def test_site_rate_overrides_survive_pickling(self):
        points = small_points(workloads=("xz",))
        spec = FaultSpec(
            seed=3, fault_rate=0.02, rates=(("tracker_drop", 0.0),)
        )
        report = run_sweep_parallel(points, jobs=2, fault_spec=spec)
        for fault in report.faults.values():
            assert "tracker_drop" not in fault["counts"]

    def test_failed_run_still_reports_its_faults(self):
        # Under the default "fail" policy a migration interrupted past
        # its retry budget raises, so the run breaks; its schedule must
        # still reach the report.
        points = small_points(workloads=("gcc",))
        spec = FaultSpec(seed=7, rates=(("migration_interrupt", 1.0),))
        report = run_sweep_parallel(points, fault_spec=spec)
        assert [f.workload for f in report.failures] == ["gcc"]
        assert "FaultExhaustedError" in report.failures[0].error
        fault = report.faults[points[0].key]
        assert fault["counts"]["migration_interrupt"] >= 1
        assert fault["digest"] and fault["summary"]


class TestTelemetryMerge:
    def test_worker_snapshots_fold_into_parent_registry(self):
        points = small_points()
        telemetry = Telemetry()
        report = run_sweep_parallel(points, jobs=2, telemetry=telemetry)
        merged = telemetry.registry.snapshot()
        assert merged  # cross-process metrics arrived
        # The parent total equals the sum of the per-run snapshots.
        name = "scheme_accesses_total{scheme=aqua}"
        expected = sum(
            snap.get(name, 0.0) for snap in report.metrics.values()
        )
        assert merged[name] == pytest.approx(expected)
        assert expected > 0


@fork_only
class TestWorkerFaults:
    """A dying worker lands in the failure ledger, not a sweep abort."""

    @pytest.fixture
    def crash_scheme(self):
        def crash_builder(trh, **kwargs):
            def build(telemetry=None):
                os._exit(3)

            return build

        runner.register_scheme_builder("crash-test", crash_builder)
        yield "crash-test"
        runner.SCHEME_BUILDERS.pop("crash-test", None)

    @pytest.fixture
    def boom_scheme(self):
        def boom_builder(trh, **kwargs):
            def build(telemetry=None):
                raise RuntimeError("synthetic scheme failure")

            return build

        runner.register_scheme_builder("boom-test", boom_builder)
        yield "boom-test"
        runner.SCHEME_BUILDERS.pop("boom-test", None)

    def test_worker_crash_goes_to_ledger_and_bystanders_finish(
        self, crash_scheme
    ):
        points = expand_grid([crash_scheme], ["xz"], epochs=1, seed=7)
        points += small_points()
        report = run_sweep_parallel(points, jobs=2)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.scheme == crash_scheme
        assert "worker process died" in failure.error
        assert len(report.results) == 2  # the innocent runs completed

    def test_python_exception_goes_to_ledger_without_pool_break(
        self, boom_scheme
    ):
        points = expand_grid([boom_scheme], ["xz"], epochs=1, seed=7)
        points += small_points()
        report = run_sweep_parallel(points, jobs=2)
        assert [f.scheme for f in report.failures] == [boom_scheme]
        assert "RuntimeError: synthetic scheme failure" in (
            report.failures[0].error
        )
        assert len(report.results) == 2


class TestCheckpointMerge:
    META = {"scheme": "aqua-sram", "trh": 1000, "epochs": 1, "seed": 7}

    def test_parallel_checkpoint_consolidates_and_resumes(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        points = small_points()
        with SweepCheckpoint.create(path, self.META) as checkpoint:
            first = run_sweep_parallel(points, jobs=2, checkpoint=checkpoint)
        assert first.resumed == 0
        assert ckpt.worker_journal_paths(path) == []  # sidecars absorbed
        with SweepCheckpoint.resume(path, self.META) as checkpoint:
            second = run_sweep_parallel(
                points, jobs=2, checkpoint=checkpoint
            )
        assert second.resumed == len(points)
        assert canonical(first) == canonical(second)

    def test_parallel_checkpoint_bytes_match_serial(self, tmp_path):
        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        points = small_points()
        with SweepCheckpoint.create(serial_path, self.META) as checkpoint:
            run_sweep_parallel(points, jobs=1, checkpoint=checkpoint)
        with SweepCheckpoint.create(parallel_path, self.META) as checkpoint:
            run_sweep_parallel(points, jobs=2, checkpoint=checkpoint)
        with open(serial_path, "rb") as fh:
            serial_bytes = fh.read()
        with open(parallel_path, "rb") as fh:
            parallel_bytes = fh.read()
        assert serial_bytes == parallel_bytes

    def test_resume_absorbs_orphaned_worker_journals(self, tmp_path):
        # A parallel sweep killed before consolidation leaves finished
        # work only in the sidecars; resume must not re-run it.
        points = small_points()
        donor = run_sweep_parallel(points, jobs=1)
        first = points[0]
        path = str(tmp_path / "ckpt.jsonl")
        SweepCheckpoint.create(path, self.META).close()
        ckpt.append_result_record(
            ckpt.worker_journal_path(path, 12345),
            first.label,
            first.workload,
            donor.results[first.key].to_dict(),
        )
        with SweepCheckpoint.resume(path, self.META) as checkpoint:
            report = run_sweep_parallel(points, jobs=1, checkpoint=checkpoint)
        assert report.resumed == 1  # the journaled run was salvaged
        assert ckpt.worker_journal_paths(path) == []
        assert canonical(report) == canonical(donor)

    def test_corrupt_sidecar_lines_are_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        sidecar = ckpt.worker_journal_path(path, 1)
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write('{"record": "result", "scheme": "x"\n')  # truncated
        records, skipped = ckpt.load_result_records(sidecar)
        assert records == []
        assert skipped == 1

    def test_resume_after_absorb_does_not_double_count(self, tmp_path):
        # A parent that consolidated a sidecar but died before unlinking
        # it leaves the same record in the main file AND the sidecar;
        # resume must fold to exactly one record, one resumed run.
        points = small_points(workloads=("xz",))
        point = points[0]
        donor = run_sweep_parallel(points, jobs=1)
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint.create(path, self.META) as checkpoint:
            checkpoint.record(
                point.label, point.workload, donor.results[point.key]
            )
        ckpt.append_result_record(
            ckpt.worker_journal_path(path, 777),
            point.label,
            point.workload,
            donor.results[point.key].to_dict(),
        )
        with SweepCheckpoint.resume(path, self.META) as checkpoint:
            report = run_sweep_parallel(points, jobs=2, checkpoint=checkpoint)
        assert report.resumed == 1
        assert canonical(report) == canonical(donor)
        assert ckpt.worker_journal_paths(path) == []
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        result_keys = [
            (record["scheme"], record["workload"])
            for record in records
            if record["record"] == "result"
        ]
        assert result_keys == [point.key]  # exactly one line survived


@fork_only
class TestCrashSalvage:
    """A run journaled to a sidecar before its worker died must be
    salvaged from the journal, never re-executed (re-running would
    waste the work and double-count against the checkpoint)."""

    def test_journaled_run_is_salvaged_not_rerun(self, tmp_path):
        # Donor result for the record the dying worker leaves behind.
        donor = run_sweep_parallel(small_points(workloads=("xz",)), jobs=1)
        donor_dict = donor.results[("aqua-sram", "xz")].to_dict()

        def journal_then_crash_builder(trh, **kwargs):
            # Mimics a worker that finished its run, journaled it, and
            # was killed before the future could report back.
            def build(telemetry=None):
                from repro.parallel import executor as ex

                ckpt.append_result_record(
                    ex._WORKER_JOURNAL, "salvage-test", "xz", donor_dict
                )
                os._exit(3)

            return build

        runner.register_scheme_builder(
            "salvage-test", journal_then_crash_builder
        )
        try:
            path = str(tmp_path / "ckpt.jsonl")
            points = expand_grid(["salvage-test"], ["xz"], epochs=1, seed=7)
            meta = {"scheme": "salvage-test", "trh": 1000, "epochs": 1,
                    "seed": 7}
            with SweepCheckpoint.create(path, meta) as checkpoint:
                report = run_sweep_parallel(
                    points, jobs=2, checkpoint=checkpoint
                )
        finally:
            runner.SCHEME_BUILDERS.pop("salvage-test", None)
        # Salvaged, not blamed: the journaled result made it into the
        # report and the crash never reached the failure ledger.
        assert report.failures == []
        assert report.results[("salvage-test", "xz")].to_dict() == donor_dict
        assert ckpt.worker_journal_paths(path) == []
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        result_keys = [
            (record["scheme"], record["workload"])
            for record in records
            if record["record"] == "result"
        ]
        assert result_keys == [("salvage-test", "xz")]  # once, exactly
