"""CLI: every subcommand produces a sane report and exit code."""

import functools
import json

import pytest

from repro.cli import main
from repro.faults import FaultSpec
from repro.parallel import executor, expand_grid, run_sweep_parallel
from repro.telemetry import Telemetry


class TestSizing:
    def test_default_point(self, capsys):
        assert main(["sizing"]) == 0
        out = capsys.readouterr().out
        assert "23,053" in out
        assert "1.1" in out

    def test_other_threshold(self, capsys):
        assert main(["sizing", "--trh", "2000"]) == 0
        assert "15,302" in capsys.readouterr().out


class TestStorage:
    def test_table_vii_columns(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        for name in ("RRS-MG", "AQUA-MG", "RRS-Hydra", "AQUA-Hydra"):
            assert name in out


class TestSweep:
    def test_small_sweep(self, capsys):
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "xz", "wrf",
             "--epochs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xz" in out and "wrf" in out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["sweep", "--workloads", "doom"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_zero_epochs_is_a_clean_parser_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--epochs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_epochs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--epochs", "-3"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_non_integer_epochs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--epochs", "two"])
        assert excinfo.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_seed_changes_the_generated_trace(self, capsys):
        base = ["sweep", "--scheme", "aqua-sram", "--workloads", "gcc",
                "--epochs", "1"]
        assert main(base + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_metrics_flag_prints_table(self, capsys):
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "xz",
             "--epochs", "1", "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics [xz]:" in out
        assert "scheme_accesses_total{scheme=aqua}" in out

    def test_invalid_sample_rate_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--trace", "x.jsonl", "--trace-sample", "0"])
        assert excinfo.value.code == 2


class TestTraceAndInspect:
    def test_jsonl_trace_round_trips_through_inspect(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "out.jsonl")
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "gcc",
             "--epochs", "1", "--trace", trace]
        )
        assert code == 0
        wrote = capsys.readouterr().out
        assert "wrote" in wrote
        assert main(["inspect", trace]) == 0
        out = capsys.readouterr().out
        assert "migration" in out
        assert "quarantine occupancy" in out
        assert "gcc" in out

    def test_chrome_trace_round_trips_through_inspect(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "out.json")
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "gcc",
             "--epochs", "1", "--trace", trace,
             "--trace-format", "chrome"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["inspect", trace]) == 0
        assert "refresh_window" in capsys.readouterr().out

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_inspect_fully_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n{]\n")
        assert main(["inspect", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "skipped 2 corrupt line(s)" in out
        assert "no parseable events" in out

    def test_inspect_skips_corrupt_lines_but_succeeds(
        self, tmp_path, capsys
    ):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            '{"ts_ns": 1.0, "kind": "migration"}\n'
            "garbage line\n"
            '{"ts_ns": 2.0, "kind": "eviction"}\n'
            '{"ts_ns": 3.0, "kind": "migr'  # truncated trailing write
        )
        assert main(["inspect", str(mixed)]) == 0
        out = capsys.readouterr().out
        assert "skipped 2 corrupt line(s)" in out
        assert "2 valid events parsed" in out

    def test_inspect_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["inspect", str(empty)]) == 2
        assert "no parseable events" in capsys.readouterr().out


class TestSweepHardening:
    def test_failed_run_gives_summary_and_nonzero_exit(
        self, capsys, monkeypatch
    ):
        from repro.sim import runner

        real = runner.run_hardened

        def fail_on_wrf(factory, target, **kwargs):
            if target.name == "wrf":
                raise RuntimeError("synthetic crash")
            return real(factory, target, **kwargs)

        monkeypatch.setattr("repro.cli.runner.run_hardened", fail_on_wrf)
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads",
             "xz", "wrf", "gcc", "--epochs", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED: RuntimeError: synthetic crash" in out
        assert "1 of 3 run(s) failed:" in out
        assert "xz" in out and "gcc" in out  # other runs still completed

    def test_checkpoint_then_resume_skips_finished_runs(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck.jsonl")
        base = ["sweep", "--scheme", "aqua-sram", "--epochs", "1"]
        assert main(base + ["--workloads", "xz", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(base + ["--workloads", "xz", "wrf", "--resume", ck]) == 0
        out = capsys.readouterr().out
        assert "(resumed)" in out
        assert "wrf" in out

    def test_resumed_checkpoint_equals_uninterrupted(self, tmp_path, capsys):
        straight = str(tmp_path / "straight.jsonl")
        partial = str(tmp_path / "partial.jsonl")
        base = ["sweep", "--scheme", "aqua-sram", "--epochs", "1"]
        assert main(
            base + ["--workloads", "xz", "wrf", "--checkpoint", straight]
        ) == 0
        assert main(
            base + ["--workloads", "xz", "--checkpoint", partial]
        ) == 0
        assert main(
            base + ["--workloads", "xz", "wrf", "--resume", partial]
        ) == 0
        capsys.readouterr()
        assert open(partial).read() == open(straight).read()

    def test_resume_with_mismatched_parameters_rejected(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "ck.jsonl")
        assert main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "xz",
             "--epochs", "1", "--checkpoint", ck]
        ) == 0
        capsys.readouterr()
        code = main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "xz",
             "--epochs", "1", "--trh", "2000", "--resume", ck]
        )
        assert code == 2
        assert "cannot resume" in capsys.readouterr().out


class TestChaos:
    def test_completes_suite_and_reports_faults(self, capsys):
        code = main(
            ["chaos", "--seed", "7", "--fault-rate", "1e-3",
             "--epochs", "1", "--workloads", "xz"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for scheme in ("aqua-sram", "aqua-mm", "rrs", "blockhammer",
                       "victim-refresh"):
            assert f"{scheme}/xz" in out
        assert "0 broke" in out

    @pytest.mark.parametrize("rate", ["2", "-0.5"])
    def test_fault_rate_outside_unit_interval_is_a_parser_error(
        self, capsys, rate
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--fault-rate", rate])
        assert excinfo.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_two_invocations_identical_output(self, capsys):
        argv = ["chaos", "--seed", "7", "--fault-rate", "1e-3",
                "--epochs", "1", "--workloads", "xz"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_different_seed_changes_the_schedule(self, capsys):
        argv = ["chaos", "--fault-rate", "1e-3", "--epochs", "1",
                "--workloads", "xz"]
        assert main(argv + ["--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "8"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_trace_contains_fault_events(self, tmp_path, capsys):
        trace = str(tmp_path / "chaos.jsonl")
        code = main(
            ["chaos", "--seed", "7", "--fault-rate", "1e-3",
             "--epochs", "1", "--workloads", "xz", "--trace", trace]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["inspect", trace]) == 0
        assert "fault" in capsys.readouterr().out


class TestChaosTrace:
    """``chaos --trace`` keeps every run's events, tagged by run."""

    ARGV = ["chaos", "--seed", "7", "--fault-rate", "1e-3",
            "--epochs", "1", "--workloads", "gcc"]

    # Victim refresh records its mitigations as ``victim_refresh``
    # events; every other scheme records them as ``migration`` events.
    MITIGATION_KIND = {"victim-refresh": "victim_refresh"}

    def test_every_run_is_complete_and_tagged(self, tmp_path, capsys):
        trace = str(tmp_path / "chaos.jsonl")
        assert main(self.ARGV + ["--trace", trace]) == 0
        assert "warning" not in capsys.readouterr().out
        with open(trace, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        kinds = {}
        for record in records:
            run = (record["label"], record["workload"])
            kinds.setdefault(run, []).append(record["kind"])
        # The same grid, untraced: its results and fault schedules are
        # what each run's events must account for.
        grid = dict(workloads=["gcc"], epochs=1, seed=7)
        points = expand_grid(
            ["aqua-sram", "aqua-mm"],
            scheme_kwargs={"rqa_full_policy": "throttle"},
            **grid,
        ) + expand_grid(["rrs", "blockhammer", "victim-refresh"], **grid)
        report = run_sweep_parallel(
            points, fault_spec=FaultSpec(seed=7, fault_rate=1e-3)
        )
        assert set(kinds) == {point.key for point in points}
        for point in points:
            run = kinds[point.key]
            kind = self.MITIGATION_KIND.get(point.label, "migration")
            assert run.count(kind) == report.results[point.key].migrations
            faults = sum(report.faults[point.key]["counts"].values())
            assert run.count("fault") == faults
        assert sum(
            report.results[point.key].migrations for point in points
        ) > 0

    def test_wrapped_ring_buffer_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            executor, "Telemetry", functools.partial(Telemetry, capacity=64)
        )
        trace = str(tmp_path / "chaos.jsonl")
        argv = ["chaos", "--epochs", "1", "--workloads", "xz"]
        assert main(argv + ["--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "warning: aqua-mm/xz trace dropped" in out
        assert "ring buffer wrapped" in out


class TestAttack:
    def test_half_double_vs_aqua_mitigated(self, capsys):
        assert main(["attack", "--scheme", "aqua"]) == 0
        assert "mitigated" in capsys.readouterr().out

    def test_half_double_vs_victim_refresh_flips(self, capsys):
        assert main(["attack", "--scheme", "victim-refresh"]) == 1
        assert "BIT FLIPS" in capsys.readouterr().out

    def test_single_sided_vs_aqua(self, capsys):
        assert main(["attack", "--scheme", "aqua", "--pattern", "single"]) == 0

    def test_out_writes_machine_readable_report(self, tmp_path, capsys):
        out = str(tmp_path / "attack.json")
        code = main(
            ["attack", "--scheme", "victim-refresh", "--out", out]
        )
        assert code == 1  # the attack still flips bits
        assert "wrote report" in capsys.readouterr().out
        document = json.loads(open(out, encoding="utf-8").read())
        assert document["pattern"] == "half-double"
        report = document["report"]
        assert report["scheme"] == "victim-refresh"
        assert report["succeeded"] is True
        assert report["flips"]  # each flip carries row/time/disturbance
        assert {"row", "time_ns", "disturbance"} <= set(report["flips"][0])
        assert report["slowdown"] == pytest.approx(
            report["elapsed_ns"] / report["unimpeded_ns"]
        )

    def test_out_report_for_mitigated_attack(self, tmp_path, capsys):
        out = str(tmp_path / "attack.json")
        assert main(["attack", "--scheme", "aqua", "--out", out]) == 0
        capsys.readouterr()
        report = json.loads(open(out, encoding="utf-8").read())["report"]
        assert report["succeeded"] is False
        assert report["flips"] == []
        assert report["migrations"] > 0


class TestService:
    """The serve/submit/status/fetch verbs against a live server."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import BackgroundServer, SimulationService

        service = SimulationService.open(
            str(tmp_path / "jobs.jsonl"), str(tmp_path / "cache")
        )
        with BackgroundServer(service) as background:
            yield background

    def submit_argv(self, port, extra=()):
        return [
            "submit", "--scheme", "aqua-sram", "--workloads", "xz",
            "--epochs", "1", "--seed", "7", "--port", str(port),
            *extra,
        ]

    def test_submit_wait_fetch_matches_direct_sweep(
        self, tmp_path, server, capsys
    ):
        fetched = str(tmp_path / "service.json")
        code = main(
            self.submit_argv(
                server.port,
                ["--wait", "--wait-timeout", "120", "--out", fetched],
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[queued]" in out
        assert "wrote result document" in out

        direct = str(tmp_path / "direct.json")
        assert main(
            ["sweep", "--scheme", "aqua-sram", "--workloads", "xz",
             "--epochs", "1", "--seed", "7", "--out", direct]
        ) == 0
        capsys.readouterr()
        assert open(fetched, "rb").read() == open(direct, "rb").read()

    def test_resubmit_is_a_cache_hit(self, server, capsys):
        assert main(
            self.submit_argv(
                server.port, ["--wait", "--wait-timeout", "120"]
            )
        ) == 0
        capsys.readouterr()
        assert main(self.submit_argv(server.port)) == 0
        assert "[cache hit]" in capsys.readouterr().out

    def test_status_lists_jobs_and_fetch_streams_the_result(
        self, server, capsys
    ):
        assert main(
            self.submit_argv(
                server.port, ["--wait", "--wait-timeout", "120"]
            )
        ) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        job_id = first_line.split()[1]

        assert main(["status", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "service ok" in out
        assert job_id in out and "done" in out

        assert main(["status", job_id, "--port", str(server.port)]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["state"] == "done"

        assert main(["fetch", job_id, "--port", str(server.port)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["meta"]["scheme"] == "aqua-sram"

    def test_fetch_unknown_job_exits_2(self, server, capsys):
        assert main(
            ["fetch", "j9-nope", "--port", str(server.port)]
        ) == 2
        assert "error" in capsys.readouterr().out

    def test_submit_to_dead_server_is_a_clean_error(self, capsys):
        # Port 1 is never listening; the client error must not traceback.
        assert main(self.submit_argv(1)) == 2
        assert "cannot reach service" in capsys.readouterr().out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
