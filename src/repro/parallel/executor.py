"""Process-parallel sweep execution with a deterministic merge.

The sweep is this repo's core workload -- every figure reproduction is
a (scheme x workload x threshold) grid -- and the grid is
embarrassingly parallel: run points share no state, so they fan out to
a :class:`~concurrent.futures.ProcessPoolExecutor` and scale with
cores.  Three invariants keep parallelism invisible to everything
downstream:

**Determinism.**  Results are merged in *run-key order* (the grid
expansion order), never completion order, and every run point is
self-contained: the workload trace is derived from ``(name, seed)``,
the fault schedule from a :class:`~repro.faults.FaultSpec` scoped by
``label/workload``, and telemetry is per-run.  ``--jobs 4`` output is
therefore byte-identical to ``--jobs 1`` for the same seeds (CI diffs
the two on every PR).

**Crash-safe checkpointing.**  Workers journal completed runs to
sidecar files (``<ckpt>.w<pid>.jsonl``) that merge back into the main
:class:`~repro.sim.checkpoint.SweepCheckpoint` -- on clean completion
and on ``--resume`` -- so a killed parallel sweep loses nothing that
any worker finished.

**Fault tolerance.**  A Python exception inside a run lands in the
report's failure ledger.  A *worker process death* (segfault,
OOM-kill, ``os._exit``) breaks the shared pool and cannot be
attributed to a single future, so the executor falls back to crash
isolation: every implicated point re-runs alone in a fresh
single-worker pool, which completes the innocent bystanders and blames
the true crasher definitively -- the sweep still does not abort.

Because factories are closures (unpicklable), the process boundary
speaks :class:`RunPoint`: the scheme *builder name* plus kwargs, looked
up in :data:`~repro.sim.runner.SCHEME_BUILDERS` inside the worker.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.sim import checkpoint as ckpt
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim import runner
from repro.sim.runner import SCHEME_BUILDERS
from repro.sim.stats import WorkloadResult
from repro.telemetry import Telemetry, TraceEvent
from repro.workloads.mixes import all_mixes
from repro.workloads.spec import workload
from repro.workloads.table2 import SPEC_NAMES


RunKey = Tuple[str, str]
"""(scheme label, workload name) -- matches the checkpoint key."""


@dataclass(frozen=True)
class RunPoint:
    """One self-contained, picklable unit of sweep work.

    ``label`` is the report/checkpoint key (distinct labels let one
    scheme appear at several thresholds in one sweep); ``scheme`` is
    the :data:`~repro.sim.runner.SCHEME_BUILDERS` name the worker
    rebuilds the factory from.
    """

    label: str
    scheme: str
    workload: str
    threshold: int = 1000
    epochs: int = 2
    seed: int = 0
    scheme_kwargs: Tuple[Tuple[str, object], ...] = ()

    @property
    def key(self) -> RunKey:
        return (self.label, self.workload)

    @property
    def scope(self) -> str:
        """Fault-seed scope: per run point, never per process."""
        return f"{self.label}/{self.workload}"

    def to_dict(self) -> dict:
        """Canonical JSON-ready dict (inverse of :meth:`from_dict`).

        This is the unit the service hashes into cache keys, so the
        field set must stay in lockstep with what actually determines a
        run's output -- adding a behavior-changing field here without
        including it in the dict would make distinct runs collide.
        """
        return {
            "label": self.label,
            "scheme": self.scheme,
            "workload": self.workload,
            "threshold": self.threshold,
            "epochs": self.epochs,
            "seed": self.seed,
            "scheme_kwargs": [
                [key, value] for key, value in self.scheme_kwargs
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "RunPoint":
        """Rebuild a run point from :meth:`to_dict` output."""
        try:
            return RunPoint(
                label=str(data["label"]),
                scheme=str(data["scheme"]),
                workload=str(data["workload"]),
                threshold=int(data["threshold"]),
                epochs=int(data["epochs"]),
                seed=int(data["seed"]),
                scheme_kwargs=tuple(
                    (str(key), value)
                    for key, value in data.get("scheme_kwargs", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed RunPoint dict: {exc}") from exc


def expand_grid(
    schemes: Sequence[str],
    workloads: Sequence[str],
    thresholds: Sequence[int] = (1000,),
    epochs: int = 2,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, object]] = None,
) -> List[RunPoint]:
    """Expand a (scheme x threshold x workload) grid into run points.

    The returned order *is* the deterministic merge order.  With a
    single threshold, labels are the bare scheme names; with several,
    ``<scheme>@<trh>``.
    """
    kwargs = tuple(sorted((scheme_kwargs or {}).items()))
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ConfigError("expand_grid needs at least one threshold")
    points: List[RunPoint] = []
    for scheme in schemes:
        if scheme not in SCHEME_BUILDERS:
            raise ConfigError(
                f"unknown scheme {scheme!r}; choose from "
                f"{sorted(SCHEME_BUILDERS)}"
            )
        for trh in thresholds:
            label = scheme if len(thresholds) == 1 else f"{scheme}@{trh}"
            for name in workloads:
                points.append(
                    RunPoint(
                        label=label,
                        scheme=scheme,
                        workload=name,
                        threshold=trh,
                        epochs=epochs,
                        seed=seed,
                        scheme_kwargs=kwargs,
                    )
                )
    return points


def resolve_workload(name: str, seed: int = 0):
    """Rebuild a workload by name inside a worker (SPEC or mix)."""
    if name in SPEC_NAMES:
        return workload(name, seed=seed)
    for mix in all_mixes():
        if mix.name == name:
            return mix
    raise ConfigError(
        f"unknown workload {name!r}; choose a SPEC name from {SPEC_NAMES} "
        f"or a mix name"
    )


@dataclass(frozen=True)
class ExecOptions:
    """Picklable per-run execution knobs shared by every point."""

    timeout_s: float = 0.0
    retries: int = 0
    backoff_s: float = 0.5
    instrument: bool = False
    trace: bool = False
    trace_sample: float = 1.0
    fault_spec: Optional[FaultSpec] = None


@dataclass
class RunFailure:
    """One run point that did not produce a result."""

    scheme: str
    workload: str
    error: str
    attempts: int


@dataclass
class SweepReport:
    """Outcome of a sweep: results, a failure ledger, and the per-run
    worker payloads, each keyed by run key."""

    results: Dict[RunKey, WorkloadResult] = field(default_factory=dict)
    failures: List[RunFailure] = field(default_factory=list)
    resumed: int = 0
    """Runs skipped because the checkpoint already held them."""
    metrics: Dict[RunKey, Dict[str, float]] = field(default_factory=dict)
    """Per-run flat metric snapshots (instrumented runs only)."""
    events: Dict[RunKey, List[TraceEvent]] = field(default_factory=dict)
    """Per-run trace events (``trace=True`` runs only)."""
    trace_dropped: Dict[RunKey, int] = field(default_factory=dict)
    faults: Dict[RunKey, dict] = field(default_factory=dict)
    """Per-run ``{counts, digest, summary}`` fault reports, failed runs
    included."""

    def by_scheme(self) -> Dict[str, Dict[str, WorkloadResult]]:
        """Results regrouped as {label: {workload: result}}."""
        grouped: Dict[str, Dict[str, WorkloadResult]] = {}
        for (label, name), result in self.results.items():
            grouped.setdefault(label, {})[name] = result
        return grouped


# ------------------------------------------------------------ worker side

_WORKER_JOURNAL: Optional[str] = None
"""Sidecar journal path of *this* worker process (None in the parent)."""


def _init_worker(journal_base: Optional[str]) -> None:
    global _WORKER_JOURNAL
    _WORKER_JOURNAL = (
        ckpt.worker_journal_path(journal_base, os.getpid())
        if journal_base is not None
        else None
    )


def _execute_point(point: RunPoint, options: ExecOptions) -> dict:
    """Run one point; always returns a payload dict (never raises).

    Runs in a worker's main thread, so the SIGALRM timeout guard in
    :func:`~repro.sim.runner.run_hardened` still works.  Ordinary
    exceptions become ``status: "error"`` payloads for the parent's
    failure ledger; only a process death escapes (and the parent's
    crash isolation handles that).
    """
    telemetry = (
        Telemetry(sample_rate=options.trace_sample)
        if options.instrument
        else None
    )
    injector = (
        options.fault_spec.build(scope=point.scope, telemetry=telemetry)
        if options.fault_spec is not None
        else None
    )
    try:
        factory = SCHEME_BUILDERS[point.scheme](
            point.threshold, **dict(point.scheme_kwargs)
        )
        target = resolve_workload(point.workload, seed=point.seed)
        # Looked up through the module so test seams (monkeypatching
        # runner.run_hardened) keep working under the executor.
        result = runner.run_hardened(
            factory,
            target,
            epochs=point.epochs,
            telemetry=telemetry,
            fault_injector=injector,
            timeout_s=options.timeout_s,
            retries=options.retries,
            backoff_s=options.backoff_s,
        )
        payload: dict = {"status": "ok", "result": result.to_dict()}
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        payload = {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "attempts": options.retries + 1,
        }
    if injector is not None:
        # A failed run reports its schedule too: it is what broke it.
        payload["faults"] = {
            "counts": injector.counts(),
            "digest": injector.schedule_digest(),
            "summary": injector.summary(),
        }
    if payload["status"] != "ok":
        return payload
    if telemetry is not None:
        telemetry.collect()
        payload["metrics"] = telemetry.registry.snapshot()
        if options.trace:
            payload["events"] = telemetry.tracer.events()
            payload["trace_dropped"] = telemetry.tracer.dropped
    if _WORKER_JOURNAL is not None:
        ckpt.append_result_record(
            _WORKER_JOURNAL, point.label, point.workload, payload["result"]
        )
    return payload


def _execute_chunk(
    chunk: List[RunPoint], options: ExecOptions
) -> List[dict]:
    """Run a batch of points in one worker task (same order, same
    payloads as point-at-a-time submission -- only the dispatch
    overhead is amortized)."""
    return [_execute_point(point, options) for point in chunk]


# ------------------------------------------------------------ parent side

#: Pool tasks submitted per worker.  One task per point maximises
#: balance but pays per-task pickle/dispatch overhead on every point;
#: one task per worker amortises best but lets a slow chunk idle the
#: other workers.  Four chunks per worker keeps dispatch cost ~O(jobs)
#: while bounding tail imbalance to ~1/4 of a worker's share.
_CHUNKS_PER_WORKER = 4


def _chunk_points(
    pending: List[RunPoint], jobs: int
) -> List[List[RunPoint]]:
    """Split points into at most ``jobs * _CHUNKS_PER_WORKER``
    contiguous batches, preserving grid order within each batch."""
    if not pending:
        return []
    size = max(1, -(-len(pending) // (jobs * _CHUNKS_PER_WORKER)))
    return [
        pending[i:i + size] for i in range(0, len(pending), size)
    ]


def _prewarm_trace_cache(points: List[RunPoint]) -> None:
    """Generate each distinct epoch trace once, in the parent.

    Fork-started worker processes (the default on Linux) inherit the
    warm memo cache, so a grid sweeping many schemes over few
    workloads generates each trace once instead of once per worker.
    Spawn-started platforms simply regenerate in the workers --
    traces are pure functions of their key, so correctness never
    depends on the cache.  Failures (unknown workload names) are left
    for the worker, where they produce a proper failure payload.
    """
    seen = set()
    for point in points:
        key = (point.workload, point.seed, point.epochs)
        if key in seen:
            continue
        seen.add(key)
        try:
            target = resolve_workload(point.workload, seed=point.seed)
            for epoch in range(point.epochs):
                target.epoch_trace(epoch)
        except Exception:
            continue


def _run_pool(
    pending: List[RunPoint],
    jobs: int,
    options: ExecOptions,
    journal_base: Optional[str],
) -> Dict[RunKey, dict]:
    """Fan points out to a worker pool; isolate crashers on pool break."""
    payloads: Dict[RunKey, dict] = {}
    implicated: List[RunPoint] = []
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(journal_base,),
    ) as pool:
        futures = {}
        for chunk in _chunk_points(pending, jobs):
            try:
                futures[pool.submit(_execute_chunk, chunk, options)] = chunk
            except BrokenExecutor:
                implicated.extend(chunk)
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                chunk_payloads = future.result()
            except BrokenExecutor:
                # A worker died somewhere in this chunk; every point in
                # it is implicated until the journal or a solo re-run
                # clears it.
                implicated.extend(chunk)
                continue
            for point, payload in zip(chunk, chunk_payloads):
                payloads[point.key] = payload
    if not implicated:
        return payloads
    # Crash isolation: a dead worker broke the shared pool, poisoning
    # every in-flight future.  Before re-running anything, salvage runs
    # that finished and were durably journaled to a sidecar but whose
    # futures were poisoned before reporting -- re-executing those
    # would both waste work and double-count against the checkpoint.
    # (Salvaged payloads carry the result only; per-run metrics/trace
    # payloads died with the worker, exactly as for resumed runs.)
    journaled: Dict[RunKey, dict] = {}
    if journal_base is not None:
        for path in ckpt.worker_journal_paths(journal_base):
            records, _ = ckpt.load_result_records(path)
            for scheme, workload, result in records:
                journaled[(scheme, workload)] = result.to_dict()
    # Then re-run each remaining implicated point alone in a
    # single-worker pool (original order): bystanders complete, and the
    # point whose run genuinely kills its process is blamed for certain.
    blamed = {point.key for point in implicated}
    for point in pending:
        if point.key not in blamed or point.key in payloads:
            continue
        if point.key in journaled:
            payloads[point.key] = {
                "status": "ok",
                "result": journaled[point.key],
            }
            continue
        try:
            with ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(journal_base,),
            ) as solo:
                payloads[point.key] = solo.submit(
                    _execute_point, point, options
                ).result()
        except BrokenExecutor:
            payloads[point.key] = {
                "status": "error",
                "error": "WorkerCrash: worker process died executing "
                         "this run",
                "attempts": 1,
            }
    return payloads


def run_sweep_parallel(
    points: Iterable[RunPoint],
    jobs: int = 1,
    *,
    checkpoint: Optional[SweepCheckpoint] = None,
    telemetry: Optional[Telemetry] = None,
    instrument: bool = False,
    trace: bool = False,
    trace_sample: float = 1.0,
    fault_spec: Optional[FaultSpec] = None,
    timeout_s: float = 0.0,
    retries: int = 0,
    backoff_s: float = 0.5,
    progress: Optional[Callable[[str, str, str], None]] = None,
) -> SweepReport:
    """Run a sweep grid across ``jobs`` worker processes.

    ``jobs=1`` executes the identical per-point code inline (no pool),
    which is both the fast path for small grids and the reference
    output the determinism CI check diffs ``--jobs 4`` against.

    ``telemetry``, when given, receives every worker's metric snapshot
    via :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_flat`
    (merged in run-key order; counters sum exactly, merged gauges
    become sums).  ``fault_spec`` -- never a live injector -- derives a
    per-run-point injector inside each worker, so chaos schedules are
    a pure function of (seed, label/workload) regardless of worker
    assignment.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1 (got {jobs})")
    points = list(points)
    keys = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ConfigError(
            "duplicate (label, workload) run points would collide in "
            "the checkpoint; give repeated schemes distinct labels"
        )
    options = ExecOptions(
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        instrument=instrument or trace or telemetry is not None,
        trace=trace,
        trace_sample=trace_sample,
        fault_spec=fault_spec,
    )
    report = SweepReport()
    if checkpoint is not None:
        # Leftover sidecars from a killed parallel run hold finished
        # work; fold them in before deciding what still needs running.
        ckpt.absorb_worker_journals(checkpoint)
    pending: List[RunPoint] = []
    for point in points:
        if checkpoint is not None and checkpoint.has(*point.key):
            report.results[point.key] = checkpoint.completed[point.key]
            report.resumed += 1
            if progress is not None:
                progress(point.label, point.workload, "resumed")
        else:
            pending.append(point)
    if jobs == 1:
        payloads: Dict[RunKey, dict] = {}
        for point in pending:
            payload = _execute_point(point, options)
            payloads[point.key] = payload
            if payload["status"] == "ok" and checkpoint is not None:
                checkpoint.record(
                    point.label,
                    point.workload,
                    WorkloadResult.from_dict(payload["result"]),
                )
    else:
        if pending:
            _prewarm_trace_cache(pending)
        payloads = _run_pool(
            pending,
            jobs,
            options,
            checkpoint.path if checkpoint is not None else None,
        )
    # Deterministic merge: walk the grid order, not completion order.
    for point in points:
        payload = payloads.get(point.key)
        if payload is None:
            continue
        if "faults" in payload:
            report.faults[point.key] = payload["faults"]
        if payload["status"] != "ok":
            report.failures.append(
                RunFailure(
                    scheme=point.label,
                    workload=point.workload,
                    error=payload.get("error", "unknown worker error"),
                    attempts=int(payload.get("attempts", 1)),
                )
            )
            if progress is not None:
                progress(point.label, point.workload, "failed")
            continue
        result = WorkloadResult.from_dict(payload["result"])
        report.results[point.key] = result
        if checkpoint is not None and not checkpoint.has(*point.key):
            checkpoint.record(point.label, point.workload, result)
        if "metrics" in payload:
            report.metrics[point.key] = payload["metrics"]
            if telemetry is not None:
                telemetry.registry.merge_flat(payload["metrics"])
        if "events" in payload:
            report.events[point.key] = payload["events"]
            report.trace_dropped[point.key] = payload.get(
                "trace_dropped", 0
            )
        if progress is not None:
            progress(point.label, point.workload, "ok")
    if checkpoint is not None:
        # Consolidation is complete; the sidecars are now redundant.
        for path in ckpt.worker_journal_paths(checkpoint.path):
            os.remove(path)
    return report
