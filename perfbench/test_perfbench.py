"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import compare
import run
import sweep
from repro.parallel import expand_grid, run_sweep_parallel

META = {"benchmark": "test", "seed": 0, "trace": False}


def small_sweep(trace=False):
    points = expand_grid(["aqua-mm"], ["xz", "namd"], epochs=1)
    return points, run_sweep_parallel(points, jobs=1, trace=trace)


def test_perturbed_result_is_caught():
    points, report = small_sweep()
    digest = sweep.results_digest(META, points, report)
    assert sweep.results_digest(META, points, report) == digest
    report.results[points[0].key].migrations += 1
    perturbed = sweep.results_digest(META, points, report)
    assert perturbed != digest

    checker = run.Checker("suite-mm", 0)
    golden = run.load_golden()["suite-mm"]["0"]
    checker.check({"points": 34, "failed": 0, "digest": golden})
    assert (checker.failed, checker.mismatched) == (0, 0)
    checker.check({"points": 34, "failed": 0, "digest": perturbed})
    assert (checker.failed, checker.mismatched) == (34, 1)
    assert checker.attempted == 68


def test_committed_golden_matches_head():
    sample = run.sweep_once("traced-hot", 0)
    assert sample["failed"] == 0
    assert sample["digest"] == run.load_golden()["traced-hot"]["0"]


def test_event_counter_disagreement_is_caught():
    points, report = small_sweep(trace=True)
    assert sweep.contract_violations(report) == 0
    report.results[points[1].key].migrations += 1
    assert sweep.contract_violations(report) == 1


def test_layer_spans_come_from_pool_workers(tmp_path):
    """Wrappers installed before the pool reach the forked workers, and
    each run point leaves one record in its worker's span file."""
    code = f"""
import json, os, sys
sys.path[:0] = [{run.HERE!r}, {sweep.SRC!r}]
import layers
rec = layers.install({str(tmp_path)!r})
from repro.parallel import expand_grid, run_sweep_parallel
points = expand_grid(["aqua-mm"], ["xz", "namd", "povray", "leela"], epochs=1)
run_sweep_parallel(points, jobs=2)
rec.flush("parent")
merged = layers.merge({str(tmp_path)!r})
print(json.dumps({{"parent": os.getpid(), "merged": merged}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    points = out["merged"]["points"]
    assert len(points) == 4
    assert all(pid != out["parent"] for pid, _, _ in points)
    assert out["merged"]["spans"]["core.construct"][2] == 4
    # The parent generates the 4 traces before the fork; workers that
    # inherit its warm cache and miss counter must not count them again.
    assert out["merged"]["counts"]["workloads.traces"] == 4
    assert out["merged"]["spans"]["trackers.kernel"][2] > 0


def test_cross_host_reports_are_not_gated():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    host = {"cpu_count": 2, "cpu_model": "A", "python": "3", "numpy": "2"}
    base = {"host": host, "workloads": {"w": {"wall_s": 1.0}}}
    slower = {"host": host, "workloads": {"w": {"wall_s": 1.5}}}
    _, regressed, cross = compare.compare(base, slower, spec)
    assert regressed and not cross
    slower["host"] = dict(host, cpu_model="B")
    _, regressed, cross = compare.compare(base, slower, spec)
    assert cross and not regressed


def test_refuses_without_simulator_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hydra-hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
