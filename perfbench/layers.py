"""Per-layer host-time attribution, installed from outside the program.

:func:`install` wraps public functions of the simulator's layers
(``workloads``, ``core``, ``trackers``, ``mitigations``, ``sim``,
``parallel`` via the per-point hook, and ``telemetry``) in spans that
accumulate into a :class:`Recorder`.  The program itself carries no
tracing code.

Wrappers are installed before the sweep's pool starts, so fork-started
workers inherit them.  Every run point's span aggregates are appended
to a per-process file ``spans.<pid>.jsonl`` in the recorder's
directory, the way the sweep checkpoint's worker sidecars work; the
parent then merges every file with :func:`merge`.

A span's *self* time is its duration minus the time of spans opened
inside it.  A span re-entered under its own name (an override calling
its base, a mix trace calling its members' traces) is not opened
again, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from time import perf_counter

SPANS = (
    "workloads.trace",
    "core.construct",
    "core.lookup",
    "core.table_update",
    "core.quarantine",
    "trackers.kernel",
    "trackers.plan",
    "mitigations.epoch",
    "sim.run",
    "telemetry",
)

COUNTS = (
    "workloads.traces",
    "trackers.fed_acts",
    "trackers.hydra_observes",
    "mitigations.scalar_chunks",
    "mitigations.epochs",
    "mitigations.fast_epochs",
)


class Recorder:
    """Span and count aggregates of one process, flushed per run point."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.pid = os.getpid()
        #: name -> [total_s, self_s, calls]; zeroed in place on flush so
        #: the wrappers' captured cells stay live.
        self.spans = {name: [0.0, 0.0, 0] for name in SPANS}
        self.counts = {name: [0] for name in COUNTS}
        #: Child time accumulated by each open span, innermost last.
        self.stack = []
        self.active = set()
        #: Whether the open epoch has entered the per-chunk batch path.
        self.epoch_batched = [False]
        self.trace_misses = _trace_misses()

    def adopt(self) -> None:
        """Start clean in a freshly forked worker.

        A fork copies the parent's unflushed aggregates, open spans and
        trace-cache miss count; the parent reports those itself.
        """
        self.pid = os.getpid()
        self.trace_misses = _trace_misses()
        self._zero()
        self.stack.clear()
        self.active.clear()

    def _zero(self) -> None:
        for cell in self.spans.values():
            cell[0], cell[1], cell[2] = 0.0, 0.0, 0
        for cell in self.counts.values():
            cell[0] = 0

    def flush(self, kind: str, start: float = 0.0, end: float = 0.0) -> None:
        """Append this process's aggregates since the last flush."""
        misses = _trace_misses()
        self.counts["workloads.traces"][0] = misses - self.trace_misses
        self.trace_misses = misses
        record = {
            "kind": kind,
            "pid": self.pid,
            "start": start,
            "end": end,
            "spans": {name: list(cell) for name, cell in self.spans.items()},
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }
        path = os.path.join(self.directory, f"spans.{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._zero()


def _trace_misses() -> int:
    from repro.workloads.spec import trace_cache_stats

    return trace_cache_stats()[1]


# ------------------------------------------------------------------ wrappers


def _span(rec: Recorder, name: str, fn):
    cell = rec.spans[name]
    stack = rec.stack
    active = rec.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name in active:
            return fn(*args, **kwargs)
        active.add(name)
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            active.discard(name)
            cell[0] += dt
            cell[1] += dt - child
            cell[2] += 1
            if stack:
                stack[-1] += dt

    return wrapper


def _kernel(rec: Recorder, fn):
    """A tracker kernel ``fn(self, row, n)``: a span that also counts
    the activations it was fed."""
    timed = _span(rec, "trackers.kernel", fn)
    fed = rec.counts["trackers.fed_acts"]
    active = rec.active

    @functools.wraps(fn)
    def wrapper(self, row, n):
        if "trackers.kernel" not in active:
            fed[0] += n
        return timed(self, row, n)

    return wrapper


def _epoch(rec: Recorder, fn):
    """``access_epoch``: a span that also classifies the epoch by
    whether it entered the per-chunk ``access_batch`` path."""
    timed = _span(rec, "mitigations.epoch", fn)
    flag = rec.epoch_batched
    epochs = rec.counts["mitigations.epochs"]
    fast = rec.counts["mitigations.fast_epochs"]
    active = rec.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if "mitigations.epoch" in active:
            return fn(*args, **kwargs)
        flag[0] = False
        try:
            return timed(*args, **kwargs)
        finally:
            epochs[0] += 1
            if not flag[0]:
                fast[0] += 1

    return wrapper


def _batch(rec: Recorder, fn):
    """``access_batch``: counted, never timed (it runs once per chunk)."""
    chunks = rec.counts["mitigations.scalar_chunks"]
    flag = rec.epoch_batched
    active = rec.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if "access_batch" in active:
            return fn(*args, **kwargs)
        chunks[0] += 1
        flag[0] = True
        active.add("access_batch")
        try:
            return fn(*args, **kwargs)
        finally:
            active.discard("access_batch")

    return wrapper


def _counter(cell, fn):
    """Count calls only: for per-activation methods too hot to time."""

    @functools.wraps(fn)
    def wrapper(self, row):
        cell[0] += 1
        return fn(self, row)

    return wrapper


def _point(rec: Recorder, fn):
    """``runner.run_hardened``: one run point; flushes its record."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            rec.adopt()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.flush("point", t0, perf_counter())

    return wrapper


def _construct(rec: Recorder, builder):
    """A scheme builder whose factories are timed as ``core.construct``."""

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        return _span(rec, "core.construct", builder(*args, **kwargs))

    return wrapper


def _classes(root):
    """``root`` and every class derived from it, once each."""
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _patch(classes, names, make) -> None:
    """Wrap each method in ``names`` wherever a class defines its own."""
    for cls in classes:
        for name in names:
            if name in cls.__dict__:
                setattr(cls, name, make(cls.__dict__[name]))


def install(directory: str) -> Recorder:
    """Wrap the layer boundaries; return the recorder they report to."""
    from repro.core.memtables import TableBackend
    from repro.core.quarantine import RowQuarantineArea
    from repro.mitigations.base import MitigationScheme
    from repro.sim import runner
    from repro.sim.system import SystemSimulator
    from repro.telemetry import Telemetry
    from repro.trackers.base import AggressorTracker
    from repro.trackers.hydra import HydraTracker
    from repro.workloads.mixes import MixWorkload
    from repro.workloads.spec import SyntheticWorkload

    rec = Recorder(directory)

    def span(name):
        return lambda fn: _span(rec, name, fn)

    _patch([SyntheticWorkload, MixWorkload], ["epoch_trace"],
           span("workloads.trace"))
    for name, builder in list(runner.SCHEME_BUILDERS.items()):
        runner.SCHEME_BUILDERS[name] = _construct(rec, builder)
    tables = _classes(TableBackend)
    _patch(tables, ["lookup", "lookup_batch"], span("core.lookup"))
    _patch(tables, ["on_quarantine", "on_release"], span("core.table_update"))
    _patch([RowQuarantineArea], ["allocate", "release"],
           span("core.quarantine"))
    trackers = _classes(AggressorTracker)
    _patch(trackers, ["observe_fast", "observe_batch"],
           lambda fn: _kernel(rec, fn))
    _patch(trackers,
           ["epoch_cannot_cross", "sparse_feed_mask", "settle_epoch_counters"],
           span("trackers.plan"))
    _patch([HydraTracker], ["observe"],
           lambda fn: _counter(rec.counts["trackers.hydra_observes"], fn))
    schemes = _classes(MitigationScheme)
    _patch(schemes, ["access_epoch"], lambda fn: _epoch(rec, fn))
    _patch(schemes, ["access_batch"], lambda fn: _batch(rec, fn))
    _patch([SystemSimulator], ["run"], span("sim.run"))
    _patch([Telemetry], ["event", "inc", "observe", "epoch_snapshot"],
           span("telemetry"))
    # The executor calls ``runner.run_hardened`` through the module.
    runner.run_hardened = _point(rec, runner.run_hardened)
    return rec


# --------------------------------------------------------------------- merge


def merge(directory: str) -> dict:
    """Fold every process's span file into totals plus point records."""
    spans = {name: [0.0, 0.0, 0] for name in SPANS}
    counts = {name: 0 for name in COUNTS}
    points = []
    for path in sorted(glob.glob(os.path.join(directory, "spans.*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                for name, (total, self_s, calls) in record["spans"].items():
                    cell = spans[name]
                    cell[0] += total
                    cell[1] += self_s
                    cell[2] += calls
                for name, value in record["counts"].items():
                    counts[name] += value
                if record["kind"] == "point":
                    points.append(
                        (record["pid"], record["start"], record["end"])
                    )
    return {"spans": spans, "counts": counts, "points": points}


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def layer_metrics(
    merged: dict,
    jobs: int,
    sweep_end: float,
    activations: int,
    actions: int,
    events: int,
    payload_bytes: int,
) -> dict:
    """The per-layer metrics of one traced sweep (self times in s)."""
    spans = merged["spans"]
    counts = merged["counts"]
    points = merged["points"]
    durations = [end - start for _, start, end in points]
    busy = {}
    for pid, start, end in points:
        busy[pid] = busy.get(pid, 0.0) + end - start
    window = max(end for _, _, end in points) - min(s for _, s, _ in points)
    mean_busy = sum(busy.values()) / jobs
    epochs = counts["mitigations.epochs"]
    return {
        "workloads.trace_s": spans["workloads.trace"][1],
        "workloads.traces": counts["workloads.traces"],
        "core.construct_s": spans["core.construct"][1],
        "core.constructs": spans["core.construct"][2],
        "core.lookup_s": spans["core.lookup"][1],
        "core.lookups": spans["core.lookup"][2],
        "core.table_update_s": spans["core.table_update"][1],
        "core.table_updates": spans["core.table_update"][2],
        "core.quarantine_s": spans["core.quarantine"][1],
        "mitigation.actions": actions,
        "trackers.kernel_s": spans["trackers.kernel"][1],
        "trackers.kernel_calls": spans["trackers.kernel"][2],
        "trackers.fed_share": counts["trackers.fed_acts"] / activations,
        "trackers.plan_s": spans["trackers.plan"][1],
        "trackers.hydra_observes": counts["trackers.hydra_observes"],
        "mitigations.epoch_self_s": spans["mitigations.epoch"][1],
        "mitigations.scalar_chunks": counts["mitigations.scalar_chunks"],
        "mitigations.fast_epoch_share": (
            counts["mitigations.fast_epochs"] / epochs if epochs else 0.0
        ),
        "sim.point_p50_s": _percentile(durations, 0.5),
        "sim.point_max_s": max(durations),
        "sim.account_s": spans["sim.run"][1],
        "parallel.efficiency": sum(busy.values()) / (jobs * window),
        "parallel.imbalance": max(busy.values()) / mean_busy,
        "parallel.payload_mb": payload_bytes / 1e6,
        "parallel.merge_s": sweep_end - max(end for _, _, end in points),
        "telemetry.events": events,
        "telemetry.s": spans["telemetry"][1],
        # Worker busy time is the base every layer share is read against.
        "busy_s": sum(busy.values()),
    }
