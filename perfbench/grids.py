"""The benchmark's workloads: named sweep grids for ``repro.parallel``.

Each grid is expanded with :func:`repro.parallel.expand_grid` at two
epochs and the run's ``--seed``, then executed by
:func:`repro.parallel.run_sweep_parallel` with the grid's ``jobs``.
This module holds plain data so that the launcher can read it without
importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

HOT_SPEC = ("lbm", "blender", "gcc", "mcf", "cactuBSSN", "roms")

EPOCHS = 2


@dataclass(frozen=True)
class Grid:
    """One benchmark workload: a sweep grid and how it is run."""

    schemes: Tuple[str, ...]
    workloads: Optional[Tuple[str, ...]]
    """Workload names; ``None`` means the paper's 18 SPEC + 16 mixes."""
    jobs: int
    threshold: int = 1000
    trace: bool = False
    """Run the sweep with the program's own event tracing on."""
    scheme_kwargs: Tuple[Tuple[str, object], ...] = ()
    paper_loss_pct: Optional[float] = None
    """The paper's gmean slowdown for this grid, where it reports one."""
    paper_ref: str = ""


GRIDS = {
    "suite-mm": Grid(
        schemes=("aqua-mm",),
        workloads=None,
        jobs=2,
        paper_loss_pct=2.1,
        paper_ref="Fig. 9, memory-mapped AQUA, gmean of 34",
    ),
    "hydra-hot": Grid(
        schemes=("aqua-mm",),
        workloads=HOT_SPEC,
        jobs=1,
        scheme_kwargs=(("tracker", "hydra"),),
        paper_ref="Appendix B reports tracker SRAM only, no slowdown",
    ),
    "traced-hot": Grid(
        schemes=("aqua-mm",),
        workloads=HOT_SPEC,
        jobs=2,
        trace=True,
        paper_ref="no paper figure for this subset",
    ),
    "schemes-lowtrh": Grid(
        schemes=("aqua-sram", "rrs", "blockhammer", "victim-refresh"),
        workloads=HOT_SPEC + ("imagick", "nab", "mix00", "mix01", "mix02",
                              "mix03"),
        jobs=2,
        threshold=500,
        paper_ref="no paper figure for this subset",
    ),
}
