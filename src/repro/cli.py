"""Command-line interface: quick experiments without writing code.

Subcommands::

    python -m repro sizing  --trh 1000            # Table III-style sizing
    python -m repro storage --trh 1000            # Table VII-style SRAM
    python -m repro sweep   --scheme aqua-mm --workloads lbm gcc
    python -m repro sweep   --jobs 4 --out results.json   # parallel sweep
    python -m repro sweep   --trace out.jsonl --metrics --seed 7
    python -m repro sweep   --checkpoint ckpt.jsonl   # crash-safe journal
    python -m repro sweep   --resume ckpt.jsonl       # skip finished runs
    python -m repro chaos   --seed 7 --fault-rate 1e-3
    python -m repro bench   --quick               # perf harness (BENCH json)
    python -m repro attack  --scheme aqua --pattern half-double
    python -m repro inspect out.jsonl             # summarize a trace
    python -m repro serve   --port 8343           # simulation job server
    python -m repro submit  --scheme aqua-mm --workloads gcc --wait
    python -m repro status                        # job table from a server
    python -m repro fetch   j1-ab12cd34ef56 --out results.json

Each prints a compact report to stdout; exit code 0 on success.

``sweep`` always runs through the parallel executor
(:mod:`repro.parallel`); ``--jobs 1`` (the default) executes inline,
and any ``--jobs N`` produces byte-identical ``--out`` files for the
same seeds (CI diffs ``--jobs 1`` against ``--jobs 4`` on every PR).

``serve``/``submit``/``status``/``fetch`` drive :mod:`repro.service`:
a ``submit`` of the same spec twice is served from the server's
content-addressed cache, and a fetched result is byte-identical to
what ``repro sweep --out`` writes for the same parameters.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.analysis.storage import table_vii
from repro.attacks import patterns
from repro.attacks.adversary import AttackHarness
from repro.core.aqua import AquaMitigation
from repro.core.config import AquaConfig
from repro.core.sizing import RqaSizing
from repro.dram.geometry import DramGeometry
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.faults import FaultSpec
from repro.mitigations.victim_refresh import VictimRefresh
from repro.parallel import (
    build_results_document,
    expand_grid,
    run_sweep_parallel,
    write_results_document,
)
from repro.service import (
    DEFAULT_PORT,
    JobSpec,
    ServiceClient,
    SimulationService,
    serve_async,
)
from repro.sim import runner
from repro.sim.checkpoint import SweepCheckpoint
from repro.telemetry import (
    load_trace_lenient,
    render_series_table,
    render_summary,
    summarize_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads.table2 import SPEC_NAMES


SCHEME_FACTORIES = runner.SCHEME_BUILDERS
"""Backwards-compatible alias; the registry lives in the runner so the
parallel executor's workers can rebuild factories by name."""

ATTACK_GEOMETRY = DramGeometry(banks_per_rank=4, rows_per_bank=4096)
ATTACK_TRH = 128


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (clean error, no traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value})"
        )
    return value


def _sample_rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in (0, 1] (got {value})"
        )
    return value


def _probability(text: str) -> float:
    """argparse type: a number in [0, 1] (clean error, no traceback)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1] (got {value})"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AQUA (MICRO 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sizing = sub.add_parser("sizing", help="RQA sizing per Equation 3")
    sizing.add_argument("--trh", type=int, default=1000,
                        help="Rowhammer threshold (default 1000)")

    storage = sub.add_parser("storage", help="SRAM budget per Table VII")
    storage.add_argument("--trh", type=int, default=1000)

    sweep = sub.add_parser("sweep", help="simulate workloads under a scheme")
    sweep.add_argument("--scheme", choices=sorted(SCHEME_FACTORIES),
                       default="aqua-mm")
    sweep.add_argument("--trh", type=int, default=1000)
    sweep.add_argument("--epochs", type=_positive_int, default=2,
                       help="refresh windows to simulate (>= 1)")
    sweep.add_argument("--workloads", nargs="*", default=["lbm", "gcc", "xz"],
                       metavar="NAME", help=f"choose from {SPEC_NAMES}")
    sweep.add_argument("--seed", type=int, default=0,
                       help="workload-generation seed (reproducible traces)")
    sweep.add_argument("--trace", metavar="PATH", default=None,
                       help="write the event trace to PATH")
    sweep.add_argument("--trace-format", choices=["jsonl", "chrome"],
                       default="jsonl",
                       help="trace export format (default jsonl)")
    sweep.add_argument("--trace-sample", type=_sample_rate, default=1.0,
                       metavar="RATE",
                       help="keep this fraction of events (default 1.0)")
    sweep.add_argument("--metrics", action="store_true",
                       help="print the per-workload metrics table")
    sweep.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="journal completed runs to PATH (crash-safe)")
    sweep.add_argument("--resume", metavar="PATH", default=None,
                       help="resume from a checkpoint, skipping "
                            "finished runs (implies --checkpoint PATH)")
    sweep.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                       help="per-run wall-clock timeout in seconds "
                            "(0 = unbounded)")
    sweep.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retries for transient failures (timeouts)")
    sweep.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes; results merge "
                            "deterministically, so any N produces "
                            "byte-identical output (default 1)")
    sweep.add_argument("--out", metavar="PATH", default=None,
                       help="write the results as canonical JSON "
                            "(ordered by run key)")

    chaos = sub.add_parser(
        "chaos",
        help="run the scheme suite under deterministic fault injection",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-schedule seed (default 7)")
    chaos.add_argument("--fault-rate", type=_probability, default=1e-3,
                       metavar="RATE",
                       help="per-check fire probability for every fault "
                            "site (default 1e-3)")
    chaos.add_argument("--trh", type=int, default=1000)
    chaos.add_argument("--epochs", type=_positive_int, default=2)
    chaos.add_argument("--workloads", nargs="*", default=["lbm", "gcc", "xz"],
                       metavar="NAME", help=f"choose from {SPEC_NAMES}")
    chaos.add_argument("--trace", metavar="PATH", default=None,
                       help="write the (fault-event-bearing) trace to PATH")

    sub.add_parser(
        "bench",
        add_help=False,
        help="time representative sweeps; write BENCH_<rev>.json "
             "(see repro bench --help)",
    )

    attack = sub.add_parser("attack", help="run an attack experiment")
    attack.add_argument("--scheme", choices=["aqua", "victim-refresh"],
                        default="aqua")
    attack.add_argument(
        "--pattern",
        choices=["single", "double", "many", "half-double", "blacksmith"],
        default="half-double",
    )
    attack.add_argument("--seed", type=int, default=0xB5,
                        help="pattern-generation seed (blacksmith fuzzing)")
    attack.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")

    inspect = sub.add_parser(
        "inspect", help="summarize an exported event trace"
    )
    inspect.add_argument("trace", metavar="PATH",
                         help="trace file (JSONL or Chrome trace-event)")

    serve = sub.add_parser(
        "serve", help="run the simulation job server (repro.service)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"listen port (default {DEFAULT_PORT}; 0 = "
                            f"ephemeral)")
    serve.add_argument("--store", metavar="PATH",
                       default="service-jobs.jsonl",
                       help="append-only job journal (crash recovery)")
    serve.add_argument("--cache-dir", metavar="DIR", default="service-cache",
                       help="content-addressed result cache directory")
    serve.add_argument("--max-depth", type=_positive_int, default=64,
                       metavar="N",
                       help="queue depth before submissions are refused "
                            "with HTTP 429 (default 64)")
    serve.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes per sweep (the repro.parallel "
                            "bridge; default 1)")

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running server"
    )
    submit.add_argument("--scheme", choices=sorted(SCHEME_FACTORIES),
                        default="aqua-mm")
    submit.add_argument("--trh", type=int, default=1000)
    submit.add_argument("--epochs", type=_positive_int, default=2)
    submit.add_argument("--workloads", nargs="*",
                        default=["lbm", "gcc", "xz"], metavar="NAME",
                        help=f"choose from {SPEC_NAMES}")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                        help="per-run wall-clock timeout (0 = unbounded)")
    submit.add_argument("--retries", type=int, default=0, metavar="N",
                        help="per-run transient-failure retries")
    submit.add_argument("--priority", type=int, default=10,
                        help="lower runs first (default 10)")
    submit.add_argument("--max-attempts", type=_positive_int, default=1,
                        metavar="N",
                        help="job-level attempts before it is failed")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        metavar="SEC")
    submit.add_argument("--out", metavar="PATH", default=None,
                        help="with --wait: write the fetched result "
                             "document to PATH (byte-identical to "
                             "'repro sweep --out')")

    status = sub.add_parser(
        "status", help="show jobs on a running server"
    )
    status.add_argument("job_id", nargs="?", default=None, metavar="JOB",
                        help="one job's detail (default: table of all)")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=DEFAULT_PORT)

    fetch = sub.add_parser(
        "fetch", help="download a finished job's result document"
    )
    fetch.add_argument("job_id", metavar="JOB")
    fetch.add_argument("--out", metavar="PATH", default=None,
                       help="write to PATH (default: stdout)")
    fetch.add_argument("--host", default="127.0.0.1")
    fetch.add_argument("--port", type=int, default=DEFAULT_PORT)
    return parser


def _cmd_sizing(args) -> int:
    effective = max(1, args.trh // 2)
    sizing = RqaSizing.for_threshold(effective)
    config = AquaConfig(rowhammer_threshold=args.trh,
                        table_mode="memory-mapped")
    print(f"T_RH = {args.trh} (effective migration threshold {effective})")
    print(f"  RQA rows (Eq. 3):    {sizing.rows:,}")
    print(f"  RQA size:            {sizing.size_mb:.0f} MB")
    print(f"  total DRAM overhead: {config.dram_overhead * 100:.2f}% "
          "(RQA + memory-mapped tables)")
    return 0


def _cmd_storage(args) -> int:
    print(f"SRAM per rank at T_RH = {args.trh} (Table VII):")
    for report in table_vii(args.trh):
        kb = report.as_kb()
        print(f"  {report.name:>10}: tracker {kb['tracker_kb']:7.1f} KB, "
              f"mapping {kb['mapping_kb']:7.1f} KB, "
              f"buffers {kb['buffer_kb']:3.0f} KB  "
              f"=> total {kb['total_kb']:7.0f} KB")
    return 0


def _write_results_json(path, meta, points, report) -> None:
    """Canonical results JSON: run-key order, sorted keys, stable bytes.

    Delegates to :mod:`repro.parallel.results`, the same builder the
    service cache uses -- which is why a fetched service result diffs
    clean against this file, and why the parallel-determinism CI step
    can diff it across ``--jobs`` values.
    """
    write_results_document(path, build_results_document(meta, points, report))


def _cmd_sweep(args) -> int:
    unknown = [n for n in args.workloads if n not in SPEC_NAMES]
    if unknown:
        print(f"error: unknown workloads {unknown}; choose from {SPEC_NAMES}")
        return 2
    instrumented = bool(args.trace or args.metrics)
    checkpoint = None
    meta = {
        "scheme": args.scheme,
        "trh": args.trh,
        "epochs": args.epochs,
        "seed": args.seed,
    }
    if args.resume:
        try:
            checkpoint = SweepCheckpoint.resume(args.resume, meta)
        except ConfigError as exc:
            print(f"error: cannot resume: {exc}")
            return 2
        if checkpoint.skipped_lines:
            print(
                f"warning: checkpoint had {checkpoint.skipped_lines} "
                "unreadable line(s) (crash artifact); re-running those runs"
            )
    elif args.checkpoint:
        checkpoint = SweepCheckpoint.create(args.checkpoint, meta)
    points = expand_grid(
        [args.scheme],
        args.workloads,
        thresholds=(args.trh,),
        epochs=args.epochs,
        seed=args.seed,
    )
    statuses = {}
    print(f"{args.scheme} @ T_RH={args.trh}, {args.epochs} epoch(s)"
          + (f", {args.jobs} jobs" if args.jobs > 1 else "") + ":")
    try:
        report = run_sweep_parallel(
            points,
            jobs=args.jobs,
            checkpoint=checkpoint,
            instrument=instrumented,
            trace=bool(args.trace),
            trace_sample=args.trace_sample,
            timeout_s=args.timeout,
            retries=args.retries,
            progress=lambda label, name, status: statuses.__setitem__(
                (label, name), status
            ),
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    errors = {
        (failure.scheme, failure.workload): failure.error
        for failure in report.failures
    }
    tagged_events = []
    for point in points:
        name = point.workload
        if point.key in errors:
            print(f"  {name:>10s} [{point.label}] "
                  f"FAILED: {errors[point.key]}")
            continue
        result = report.results[point.key]
        resumed = statuses.get(point.key) == "resumed"
        print(f"  {result.summary()}{' (resumed)' if resumed else ''}")
        if args.metrics and point.key in report.metrics:
            print(f"  metrics [{name}]:")
            print(render_series_table(report.metrics[point.key]))
        if args.trace and point.key in report.events:
            tag = {"workload": name}
            tagged_events.extend(
                (event, tag) for event in report.events[point.key]
            )
            dropped = report.trace_dropped.get(point.key, 0)
            if dropped:
                print(
                    f"  warning: {name} trace dropped "
                    f"{dropped:,} events (ring buffer wrapped)"
                )
    if args.trace:
        writer = (
            write_chrome_trace
            if args.trace_format == "chrome"
            else write_jsonl
        )
        count = writer(args.trace, tagged_events)
        print(f"wrote {count:,} events to {args.trace}")
    if args.out:
        _write_results_json(args.out, meta, points, report)
        print(f"wrote {len(report.results)} result(s) to {args.out}")
    if report.failures:
        print(f"{len(report.failures)} of {len(points)} run(s) failed:")
        for failure in report.failures:
            print(f"  {failure.workload}: {failure.error}")
        return 1
    return 0




def _cmd_chaos(args) -> int:
    unknown = [n for n in args.workloads if n not in SPEC_NAMES]
    if unknown:
        print(f"error: unknown workloads {unknown}; choose from {SPEC_NAMES}")
        return 2
    grid = dict(
        workloads=args.workloads,
        thresholds=(args.trh,),
        epochs=args.epochs,
        seed=args.seed,
    )
    # AQUA schemes opt into the throttle degradation so injected RQA
    # exhaustion degrades instead of raising; other schemes have no
    # RQA and need no policy.
    aqua = ["aqua-sram", "aqua-mm"]
    others = ["rrs", "blockhammer", "victim-refresh"]
    points = expand_grid(
        aqua, scheme_kwargs={"rqa_full_policy": "throttle"}, **grid
    ) + expand_grid(others, **grid)
    print(
        f"chaos @ seed={args.seed} fault_rate={args.fault_rate:g}, "
        f"T_RH={args.trh}, {args.epochs} epoch(s), "
        f"{len(aqua) + len(others)} scheme(s) x {len(args.workloads)} "
        f"workload(s):"
    )
    report = run_sweep_parallel(
        points,
        trace=bool(args.trace),
        fault_spec=FaultSpec(seed=args.seed, fault_rate=args.fault_rate),
    )
    errors = {
        (failure.scheme, failure.workload): failure.error
        for failure in report.failures
    }
    degraded = 0
    for point in points:
        name = f"{point.label}/{point.workload}"
        faults = report.faults[point.key]
        if point.key in errors:
            print(f"  {name:>24s}: BROKE ({errors[point.key]}); "
                  f"faults: {faults['summary']}")
            continue
        status = "ok"
        if sum(faults["counts"].values()):
            degraded += 1
            status = "degraded"
        print(f"  {name:>24s}: {status}; faults: {faults['summary']} "
              f"[digest {faults['digest']}]")
    print(
        f"chaos result: {len(report.results)} completed "
        f"({degraded} degraded gracefully), {len(errors)} broke"
    )
    if args.trace:
        tagged_events = []
        for point in points:
            if point.key not in report.events:
                continue
            tag = {"workload": point.workload, "label": point.label}
            tagged_events.extend(
                (event, tag) for event in report.events[point.key]
            )
            dropped = report.trace_dropped[point.key]
            if dropped:
                print(
                    f"warning: {point.label}/{point.workload} trace "
                    f"dropped {dropped:,} events (ring buffer wrapped)"
                )
        count = write_jsonl(args.trace, tagged_events)
        print(f"wrote {count:,} events to {args.trace}")
    return 1 if errors else 0


def _cmd_inspect(args) -> int:
    try:
        records, skipped = load_trace_lenient(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}")
        return 2
    if skipped:
        print(
            f"warning: skipped {skipped} corrupt line(s) "
            f"({len(records)} valid events parsed)"
        )
    if not records:
        print("error: trace contains no parseable events")
        return 2
    print(render_summary(summarize_trace(records)))
    return 0


def _cmd_attack(args) -> int:
    if args.scheme == "aqua":
        scheme = AquaMitigation(
            AquaConfig(
                rowhammer_threshold=ATTACK_TRH,
                geometry=ATTACK_GEOMETRY,
                rqa_slots=512,
                tracker_entries_per_bank=64,
            )
        )
    else:
        scheme = VictimRefresh(
            rowhammer_threshold=ATTACK_TRH,
            geometry=ATTACK_GEOMETRY,
            tracker_entries_per_bank=64,
        )
    harness = AttackHarness(
        scheme, rowhammer_threshold=ATTACK_TRH, geometry=ATTACK_GEOMETRY
    )
    mapper = harness.mapper
    trigger = ATTACK_TRH // 2
    if args.pattern == "single":
        pattern = patterns.single_sided(mapper, 1, 100, 3000)
    elif args.pattern == "double":
        pattern = patterns.double_sided(mapper, 1, 100, pairs=1500)
    elif args.pattern == "many":
        pattern = patterns.many_sided(mapper, 1, 100, aggressors=8,
                                      rounds=400)
    elif args.pattern == "blacksmith":
        pattern = patterns.blacksmith(
            mapper, 1, 100, aggressors=8,
            total_activations=3200, seed=args.seed,
        )
    else:
        pattern = patterns.half_double(
            mapper, 1, 100,
            far_hammers=100 * trigger,
            near_hammers_per_epoch=trigger - 1,
        )
    report = harness.run(pattern)
    print(f"{args.pattern} attack vs {args.scheme} "
          f"(scaled geometry, T_RH={ATTACK_TRH}):")
    print(f"  attacker activations: {report.activations:,}")
    print(f"  mitigations:          {report.migrations}")
    print(f"  peak row ACTs/64ms:   {report.peak_row_activations}")
    print(f"  attack slowdown:      {report.slowdown:.2f}x")
    if args.out:
        document = {
            "pattern": args.pattern,
            "seed": args.seed,
            "trh": ATTACK_TRH,
            "report": report.to_dict(),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    if report.succeeded:
        rows = ", ".join(str(f.row) for f in report.flips)
        print(f"  RESULT: BIT FLIPS at physical rows {rows}")
        return 1
    print(f"  RESULT: mitigated (invariant holds: "
          f"{harness.invariant_holds()})")
    return 0


def _cmd_serve(args) -> int:
    try:
        service = SimulationService.open(
            args.store,
            args.cache_dir,
            max_depth=args.max_depth,
            jobs=args.jobs,
        )
    except ConfigError as exc:
        print(f"error: cannot open service state: {exc}")
        return 2
    recovered = service.queue.depth
    print(f"repro service: store={args.store} cache={args.cache_dir} "
          f"max-depth={args.max_depth} jobs={args.jobs}"
          + (f" ({recovered} job(s) recovered)" if recovered else ""),
          flush=True)

    def on_ready(server) -> None:
        print(f"serving on http://{server.host}:{server.port} "
              f"(SIGTERM drains gracefully)", flush=True)

    asyncio.run(
        serve_async(
            service, host=args.host, port=args.port, on_ready=on_ready
        )
    )
    print("drained cleanly; queued work (if any) resumes on next start")
    return 0


def _print_job_line(job: dict) -> None:
    cached = " (cached)" if job.get("from_cache") else ""
    error = f"  error: {job['error']}" if job.get("error") else ""
    print(f"  {job['id']:>28s}  {job['state']:>7s}{cached}"
          f"  attempts={job.get('attempts', 0)}{error}")


def _cmd_submit(args) -> int:
    spec = JobSpec(
        scheme=args.scheme,
        workloads=tuple(args.workloads),
        trh=args.trh,
        epochs=args.epochs,
        seed=args.seed,
        timeout_s=args.timeout,
        retries=args.retries,
        priority=args.priority,
        max_attempts=args.max_attempts,
    )
    client = ServiceClient(args.host, args.port)
    try:
        accepted = client.submit(spec)
    except QueueFullError as exc:
        print(f"error: server refused the job (backpressure): {exc}")
        return 1
    except (ConfigError, ServiceError) as exc:
        print(f"error: {exc}")
        return 2
    job = accepted["job"]
    hit = "cache hit" if accepted.get("cached") else "queued"
    print(f"submitted {job['id']} [{hit}] digest={job['digest'][:16]}")
    if not args.wait:
        return 0
    try:
        job = client.wait(job["id"], timeout_s=args.wait_timeout)
    except ServiceError as exc:
        print(f"error: {exc}")
        return 1
    _print_job_line(job)
    if job["state"] != "done":
        return 1
    if args.out:
        try:
            text = client.result_text(job["id"])
        except ServiceError as exc:
            print(f"error: {exc}")
            return 1
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote result document to {args.out}")
    return 0


def _cmd_status(args) -> int:
    client = ServiceClient(args.host, args.port)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        health = client.health()
        jobs = client.jobs()
    except JobNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    counts = ", ".join(
        f"{state}={count}"
        for state, count in sorted(health.get("jobs", {}).items())
    ) or "none"
    print(f"service {health.get('status')}: "
          f"queue depth {health.get('queue_depth')}, jobs: {counts}")
    for job in jobs:
        _print_job_line(job)
    return 0


def _cmd_fetch(args) -> int:
    client = ServiceClient(args.host, args.port)
    try:
        text = client.result_text(args.job_id)
    except JobNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    except ServiceError as exc:
        print(f"error: {exc}")
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote result document to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # The bench harness owns its option surface (it is also
        # runnable standalone as benchmarks/bench_perf.py); hand the
        # rest of the argv straight through.
        from repro.bench import main as bench_main

        return bench_main(argv[1:])
    args = _build_parser().parse_args(argv)
    handlers = {
        "sizing": _cmd_sizing,
        "storage": _cmd_storage,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "attack": _cmd_attack,
        "inspect": _cmd_inspect,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
