"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Heavy
34-workload sweeps run on the repo's one sweep engine,
:func:`repro.parallel.run_sweep_parallel`, with one worker per core;
its merge is deterministic, so the rendered tables are the same bytes
as a serial run.  Each configuration's sweep is computed once and
memoised at module scope, so benchmarks that share a sweep (Figs. 6,
7, 9, 10) pay for it once.  Each benchmark also writes its rendered
table to ``benchmarks/results/<name>.txt`` so the artifacts survive
pytest's output capture.
"""

from __future__ import annotations

import functools
import os
from typing import Dict

from repro.parallel import expand_grid, run_sweep_parallel
from repro.sim import runner
from repro.sim.stats import WorkloadResult


EPOCHS = 2
"""Refresh windows simulated per workload (epoch 2 exercises the
steady-state lazy drain)."""

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

WORKLOADS = tuple(target.name for target in runner.all_workloads())
"""The paper's 34 workloads (18 SPEC + 16 mixes), in report order."""


@functools.lru_cache(maxsize=None)
def sweep(
    config: str, trh: int = 1000, extra: tuple = ()
) -> Dict[str, WorkloadResult]:
    """Run (or fetch) the 34-workload sweep for one configuration.

    ``extra`` is a tuple of (key, value) pairs forwarded to the scheme
    builder (e.g. bloom/FPT-cache sizes for the Fig. 11 sensitivity).
    Returns ``{workload: result}`` in grid order; any failed run fails
    the benchmark.
    """
    points = expand_grid(
        [config],
        WORKLOADS,
        thresholds=(trh,),
        epochs=EPOCHS,
        scheme_kwargs=dict(extra),
    )
    report = run_sweep_parallel(points, jobs=os.cpu_count() or 1)
    if report.failures:
        raise RuntimeError(
            f"{config} @ T_RH={trh} {dict(extra)}: "
            f"{len(report.failures)} run(s) failed: {report.failures}"
        )
    return {point.workload: report.results[point.key] for point in points}


def gmean_loss_percent(results: Dict[str, WorkloadResult]) -> float:
    """Geometric-mean slowdown as percent loss."""
    return (runner.gmean_slowdown(results) - 1.0) * 100.0


def write_table(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)


def render_rows(headers, rows) -> str:
    """Simple fixed-width table renderer."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    def fmt(values):
        return "  ".join(
            str(value).rjust(width) for value, width in zip(values, widths)
        )

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def emit(name: str, text: str) -> None:
    """Print a table and persist it."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    write_table(name, text)
