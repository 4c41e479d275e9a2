"""Process-parallel sweep execution: the repo's one sweep engine.

:func:`run_sweep_parallel` fans a (scheme x workload x threshold) grid
of :class:`RunPoint` s out to worker processes and merges the results
deterministically -- parallel output is byte-identical to serial
output for the same seeds.  See :mod:`repro.parallel.executor` for the
invariants (deterministic merge, sidecar checkpoint journals, crash
isolation) and DESIGN.md §9 for the architecture.

:mod:`repro.parallel.results` renders the canonical results document
shared by ``repro sweep --out``, the service result cache, and the CI
determinism diffs.
"""

from repro.parallel.executor import (
    ExecOptions,
    RunPoint,
    SweepReport,
    expand_grid,
    resolve_workload,
    run_sweep_parallel,
)
from repro.parallel.results import (
    build_results_document,
    render_results_document,
    write_results_document,
)

__all__ = [
    "ExecOptions",
    "RunPoint",
    "SweepReport",
    "build_results_document",
    "expand_grid",
    "render_results_document",
    "resolve_workload",
    "run_sweep_parallel",
    "write_results_document",
]
