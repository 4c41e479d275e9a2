"""One benchmark sweep in a fresh process: set up, run, measure, check.

    python3 perfbench/sweep.py --workload NAME --seed N
        [--program-trace 0|1] [--spans DIR]

Set-up is everything a user's fresh invocation pays before the sweep:
importing the simulator and expanding the grid.  The sweep is one
:func:`repro.parallel.run_sweep_parallel` call, which generates the
epoch traces itself (its parent-side prewarm, then any cache misses in
the workers), so trace generation is part of ``wall_s``.  A fresh
process per sweep keeps ``RUSAGE_CHILDREN`` (CPU time and peak memory
of the pool workers) from inheriting any earlier sweep.

``--spans DIR`` installs the layer wrappers of :mod:`layers` first and
adds the per-layer metrics of this sweep to the output.  Prints one
JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import layers  # noqa: E402
from grids import EPOCHS, GRIDS  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _import_repro():
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"sweep: cannot import the simulator from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"sweep: repro was imported from {repro.__file__}, "
                 f"not from {SRC}")


def workload_names(grid):
    """The grid's workload list (``None`` expands to all 34)."""
    if grid.workloads is not None:
        return list(grid.workloads)
    from repro.workloads.mixes import all_mixes
    from repro.workloads.table2 import SPEC_NAMES

    return list(SPEC_NAMES) + [mix.name for mix in all_mixes()]


def results_digest(meta: dict, points, report) -> str:
    """SHA-256 of the sweep's canonical results document."""
    from repro.parallel import build_results_document, render_results_document

    document = build_results_document(meta, points, report)
    return hashlib.sha256(
        render_results_document(document).encode("utf-8")
    ).hexdigest()


def contract_violations(report) -> int:
    """Traced points whose exported events disagree with their counters.

    DESIGN §7: a traced run drops no event, and its ``migration`` event
    count equals the run's ``WorkloadResult.migrations``.
    """
    bad = 0
    for key, result in report.results.items():
        migrations = sum(
            1 for event in report.events.get(key, ())
            if event.kind == "migration"
        )
        if report.trace_dropped.get(key, 0) or migrations != result.migrations:
            bad += 1
    return bad


def gmean_loss_pct(report) -> dict:
    """Gmean slowdown per scheme label, in percent (the paper's metric)."""
    from repro.sim.runner import gmean_slowdown

    return {
        label: (gmean_slowdown(results) - 1.0) * 100.0
        for label, results in report.by_scheme().items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRIDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--program-trace", type=int, choices=(0, 1),
                        default=None,
                        help="override the grid's own tracing setting")
    parser.add_argument("--spans", metavar="DIR", default=None)
    args = parser.parse_args()
    grid = GRIDS[args.workload]
    trace = grid.trace if args.program_trace is None else bool(
        args.program_trace)

    _import_repro()
    from repro.parallel import expand_grid, run_sweep_parallel

    recorder = None
    if args.spans is not None:
        recorder = layers.install(args.spans)
    points = expand_grid(
        grid.schemes,
        workload_names(grid),
        thresholds=(grid.threshold,),
        epochs=EPOCHS,
        seed=args.seed,
        scheme_kwargs=dict(grid.scheme_kwargs),
    )
    setup_s = time.perf_counter() - T0
    if recorder is not None:
        recorder.flush("setup")

    cpu0 = _cpu_s()
    start = time.perf_counter()
    report = run_sweep_parallel(points, jobs=grid.jobs, trace=trace)
    end = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest
    # reaped worker, which only this sweep's pool can have produced.
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    meta = {"benchmark": args.workload, "seed": args.seed, "trace": trace}
    digest = results_digest(meta, points, report)
    results = report.results.values()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "setup_s": setup_s,
        "wall_s": end - start,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "points": len(points),
        "failed": len(report.failures) + (
            contract_violations(report) if trace else 0),
        "activations": sum(result.activations for result in results),
        "digest": digest,
        "loss_pct": gmean_loss_pct(report),
    }
    if recorder is not None:
        recorder.flush("parent")
        payload = pickle.dumps(
            (report.results, report.metrics, report.events),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        out["layers"] = layers.layer_metrics(
            layers.merge(args.spans),
            jobs=grid.jobs,
            sweep_end=end,
            activations=out["activations"],
            actions=sum(result.migrations for result in results),
            events=sum(len(events) for events in report.events.values()),
            payload_bytes=len(payload),
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
