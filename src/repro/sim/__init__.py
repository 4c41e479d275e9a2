"""Simulation layer: CPU model, system simulator, and experiment runner."""

from repro.sim.cpu import gmean, normalized_performance, slowdown_from_busy
from repro.sim.stats import WorkloadResult
from repro.sim.system import SystemSimulator
from repro.sim.runner import (
    all_workloads,
    aqua_memory_mapped,
    aqua_sram,
    baseline,
    blockhammer,
    gmean_slowdown,
    rrs,
    victim_refresh,
)

__all__ = [
    "gmean",
    "normalized_performance",
    "slowdown_from_busy",
    "WorkloadResult",
    "SystemSimulator",
    "all_workloads",
    "aqua_memory_mapped",
    "aqua_sram",
    "baseline",
    "blockhammer",
    "gmean_slowdown",
    "rrs",
    "victim_refresh",
]
