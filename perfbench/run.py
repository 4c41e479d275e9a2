"""The repo benchmark: named sweep workloads through ``repro.parallel``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced

Load is a closed loop from one process: one sweep runs at a time, each
in a fresh process (``sweep.py``), while another still fits in
``--seconds``.  With ``--trace 0`` the end-to-end metrics are the
fastest sweep's wall and CPU time and the median set-up time and peak
memory of those sweeps.  With ``--trace 1`` each round runs the sweep
untraced and then
with the layer wrappers of ``layers.py``, and reports the per-layer
metrics.  Every sweep's results document is checked against the
committed golden digest for its seed (``golden.json``), or, for a seed
without one, against the run's other sweeps.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from grids import GRIDS  # noqa: E402

#: A run must end within 180 s; its sweeps are killed past this.
RUN_DEADLINE_S = 170.0
#: Fewest sweeps in a ``--trace 0`` run.
MIN_SWEEPS = 3


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SweepError(RuntimeError):
    """A sweep process that failed to produce its JSON line."""


def sweep_once(workload, seed, program_trace=None, spans=None,
               timeout=RUN_DEADLINE_S) -> dict:
    """Run one sweep in a fresh process and return its JSON object.

    The sweep and its pool workers share a new process group, which is
    killed as a whole if the sweep overruns ``timeout`` seconds.
    """
    cmd = [sys.executable, os.path.join(HERE, "sweep.py"),
           "--workload", workload, "--seed", str(seed)]
    if program_trace is not None:
        cmd += ["--program-trace", str(int(program_trace))]
    if spans is not None:
        cmd += ["--spans", spans]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SweepError(f"sweep {workload} overran its "
                                 f"{timeout:.0f} s budget") from exc
            raise
    if proc.returncode != 0:
        raise SweepError(f"sweep {workload} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def fingerprint() -> dict:
    """What identifies the host and the code a report was measured on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    # A checkout without git history is identified by its sources.
    src = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev,
        "src_sha256": src.hexdigest()[:16],
    }


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts failed points: ledger entries, contract breaches, and
    every point of a sweep whose results digest is wrong."""

    def __init__(self, workload: str, seed: int) -> None:
        golden = load_golden().get(workload, {}).get(str(seed))
        self.golden = golden is not None
        #: Expected digest per kind of sweep; without a golden digest,
        #: the first sweep of each kind sets it for the rest.
        self.expected = {"": golden}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def check(self, sample: dict, kind: str = "") -> None:
        """``kind`` separates sweeps whose documents legitimately differ
        (the program-untraced twin of a traced grid)."""
        self.attempted += sample["points"]
        failed = sample["failed"]
        expected = self.expected.get(kind)
        if expected is None:
            expected = self.expected[kind] = sample["digest"]
        if sample["digest"] != expected:
            self.mismatched += 1
            failed = sample["points"]
        self.failed += failed


def _median(samples, key):
    return statistics.median(sample[key] for sample in samples)


def _fastest(samples, key):
    return min(sample[key] for sample in samples)


class Window:
    """The run's measuring window of ``seconds``.

    Another sweep (or round of sweeps) starts only if one as long as
    the longest so far still ends inside the window, so a run lasts
    ``seconds`` whatever the size of its sweeps.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.longest = 0.0

    def timed(self, fn):
        t0 = time.perf_counter()
        result = fn()
        self.longest = max(self.longest, time.perf_counter() - t0)
        return result

    def fits_another(self) -> bool:
        elapsed = time.perf_counter() - self.start
        return elapsed + self.longest <= self.seconds


def measure(workload, seed, seconds, deadline, checker):
    """Untraced sweeps for ``seconds``: the end-to-end metrics.

    Other tenants of a shared host only ever add time to a sweep, so
    the sweep times are reported as the fastest sweep of the run (the
    median is printed beside it); set-up and memory as medians.
    """
    samples = []
    window = Window(seconds)
    while len(samples) < MIN_SWEEPS or window.fits_another():
        sample = window.timed(lambda: sweep_once(
            workload, seed, timeout=deadline - time.perf_counter()))
        checker.check(sample)
        samples.append(sample)
    wall = _fastest(samples, "wall_s")
    metrics = {
        "wall_s": wall,
        "acts_per_s": samples[0]["activations"] / wall,
        "cpu_s": _fastest(samples, "cpu_s"),
        "setup_s": _median(samples, "setup_s"),
        "peak_rss_mb": _median(samples, "peak_rss_mb"),
    }
    return metrics, samples, None


def measure_layers(workload, seed, seconds, deadline, checker):
    """Rounds of (untraced, span-traced) sweeps: the per-layer metrics."""
    grid = GRIDS[workload]
    plain, traced, twin = [], [], []
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)

    def one_round():
        plain.append(sweep_once(workload, seed,
                                timeout=deadline - time.perf_counter()))
        checker.check(plain[-1])
        spans = tempfile.mkdtemp(prefix="spans-", dir=work)
        try:
            traced.append(sweep_once(workload, seed, spans=spans,
                                     timeout=deadline - time.perf_counter()))
        finally:
            shutil.rmtree(spans, ignore_errors=True)
        checker.check(traced[-1])
        if grid.trace:
            # The same grid with the program's tracing off.
            twin.append(sweep_once(workload, seed, program_trace=0,
                                   timeout=deadline - time.perf_counter()))
            checker.check(twin[-1], kind="untraced")

    window = Window(seconds)
    while not traced or window.fits_another():
        window.timed(one_round)
    metrics = {
        name: statistics.median(sample["layers"][name] for sample in traced)
        for name in traced[0]["layers"]
    }
    busy = metrics.pop("busy_s")
    metrics["telemetry.overhead_x"] = (
        _median(plain, "wall_s") / _median(twin, "wall_s") if twin else 1.0
    )
    metrics["trace.overhead_x"] = (
        _median(traced, "wall_s") / _median(plain, "wall_s")
    )
    return metrics, plain + traced + twin, busy


def _fmt(value) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report_lines(workload, seed, host, metrics, units, samples, checker,
                 busy):
    grid = GRIDS[workload]
    lines = [
        f"perfbench: workload={workload} seed={seed} "
        f"trace={int(busy is not None)} jobs={grid.jobs} "
        f"points/sweep={samples[0]['points']} sweeps={len(samples)}",
        "host: " + json.dumps(host, sort_keys=True),
    ]
    for name, value in metrics.items():
        note = ""
        if name in ("wall_s", "cpu_s") and busy is None:
            note = (f"  (fastest of {len(samples)} sweeps; median "
                    f"{_fmt(_median(samples, name))})")
        elif busy and units[name] == "s":
            note = f"  ({100.0 * value / busy:.1f}% of {busy:.3f} s worker busy)"
        lines.append(f"  {name:<30} {_fmt(value):>14} {units[name]}{note}")
    rate = checker.failed / checker.attempted
    lines.append(f"  {'error_rate':<30} {_fmt(rate):>14} ratio  "
                 f"({checker.failed} of {checker.attempted} points failed)")
    source = (f"golden digest for seed {seed}" if checker.golden
              else f"no golden digest for seed {seed}; sweeps checked "
                   f"against each other")
    lines.append(f"  correctness: {source}; "
                 f"{checker.mismatched} sweep(s) mismatched")
    losses = ", ".join(f"{label} {pct:.3f}%"
                       for label, pct in samples[0]["loss_pct"].items())
    paper = (f"paper {grid.paper_loss_pct}%"
             if grid.paper_loss_pct is not None else "no paper value")
    lines.append(f"  accuracy (informational): gmean loss {losses}; "
                 f"{paper} ({grid.paper_ref})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark on one workload or all.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(GRIDS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report as JSON (see compare.py)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    measure_fn = measure_layers if args.trace else measure
    host = fingerprint()
    workloads = sorted(GRIDS) if args.workload == "all" else [args.workload]
    results = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            checker = Checker(workload, args.seed)
            measured, samples, busy = measure_fn(
                workload, args.seed, args.seconds,
                time.perf_counter() + RUN_DEADLINE_S, checker)
            # Declared order; a declared metric left unmeasured fails here.
            metrics = {name: measured[name] for name in units}
            for line in report_lines(workload, args.seed, host, metrics,
                                     units, samples, checker, busy):
                print(line, flush=True)
            results[workload] = metrics
            attempted += checker.attempted
            failed += checker.failed
    except SweepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        shown = results[workloads[0]]
    else:
        shown = {f"{workload}/{name}": value
                 for workload, metrics in results.items()
                 for name, value in metrics.items()}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name.split("/")[-1]]}
            for name, value in shown.items()
        },
    }
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "seed": args.seed, "trace": args.trace,
                       "workloads": results, "summary": summary},
                      fh, indent=2, sort_keys=True)
    print(json.dumps(summary), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
