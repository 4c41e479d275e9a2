"""Experiment runner: scheme factories, one hardened run, aggregates.

:data:`SCHEME_BUILDERS` names the paper's schemes, and
:func:`run_hardened` runs one workload on a freshly built scheme under
a timeout and transient-failure retry.  This module runs no suites:
every sweep -- ``repro sweep``, ``repro chaos``, the paper figures and
the service -- is a grid of run points executed by
:func:`repro.parallel.run_sweep_parallel`, which calls
:func:`run_hardened` once per point.  :func:`gmean_slowdown`
aggregates a suite as the paper does (Gmean-34).
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Dict, List

from repro.core.aqua import AquaMitigation
from repro.core.config import AquaConfig
from repro.errors import RunTimeoutError
from repro.mitigations.base import MitigationScheme
from repro.mitigations.blockhammer import Blockhammer
from repro.mitigations.none import NoMitigation
from repro.mitigations.rrs import RandomizedRowSwap
from repro.mitigations.victim_refresh import VictimRefresh
from repro.sim.cpu import gmean
from repro.sim.stats import WorkloadResult
from repro.sim.system import SystemSimulator
from repro.workloads.mixes import all_mixes
from repro.workloads.spec import workload
from repro.workloads.table2 import SPEC_NAMES


SchemeFactory = Callable[..., MitigationScheme]
"""Zero-argument builder; accepts an optional ``telemetry`` kwarg."""


def aqua_sram(rowhammer_threshold: int = 1000, **kwargs) -> SchemeFactory:
    """Factory: AQUA with SRAM tables (Sec. IV)."""

    def build(telemetry=None) -> MitigationScheme:
        return AquaMitigation(
            AquaConfig(
                rowhammer_threshold=rowhammer_threshold,
                table_mode="sram",
                **kwargs,
            ),
            telemetry=telemetry,
        )

    return build


def aqua_memory_mapped(
    rowhammer_threshold: int = 1000, **kwargs
) -> SchemeFactory:
    """Factory: AQUA with memory-mapped tables (Sec. V)."""

    def build(telemetry=None) -> MitigationScheme:
        return AquaMitigation(
            AquaConfig(
                rowhammer_threshold=rowhammer_threshold,
                table_mode="memory-mapped",
                **kwargs,
            ),
            telemetry=telemetry,
        )

    return build


def rrs(rowhammer_threshold: int = 1000, **kwargs) -> SchemeFactory:
    """Factory: Randomized Row-Swap at the given threshold."""

    def build(telemetry=None) -> MitigationScheme:
        return RandomizedRowSwap(
            rowhammer_threshold=rowhammer_threshold,
            telemetry=telemetry,
            **kwargs,
        )

    return build


def blockhammer(rowhammer_threshold: int = 1000, **kwargs) -> SchemeFactory:
    """Factory: Blockhammer rate-limiting."""

    def build(telemetry=None) -> MitigationScheme:
        return Blockhammer(
            rowhammer_threshold=rowhammer_threshold,
            telemetry=telemetry,
            **kwargs,
        )

    return build


def victim_refresh(rowhammer_threshold: int = 1000, **kwargs) -> SchemeFactory:
    """Factory: classic victim refresh."""

    def build(telemetry=None) -> MitigationScheme:
        return VictimRefresh(
            rowhammer_threshold=rowhammer_threshold,
            telemetry=telemetry,
            **kwargs,
        )

    return build


def baseline() -> SchemeFactory:
    """Factory: unprotected baseline."""
    return NoMitigation


SCHEME_BUILDERS: Dict[str, Callable[..., SchemeFactory]] = {
    "aqua-sram": aqua_sram,
    "aqua-mm": aqua_memory_mapped,
    "rrs": rrs,
    "blockhammer": blockhammer,
    "victim-refresh": victim_refresh,
}
"""Name -> factory builder.  This registry is the picklable currency of
the parallel executor: a :class:`~repro.parallel.RunPoint` carries only
the builder *name* and kwargs across the process boundary, and each
worker rebuilds the (unpicklable) factory closure locally."""


def register_scheme_builder(
    name: str, builder: Callable[..., SchemeFactory]
) -> None:
    """Register (or replace) a scheme builder under ``name``.

    Extension hook for experiments and tests; under the default Unix
    ``fork`` start method, registrations made before the pool spawns
    are visible inside workers.
    """
    SCHEME_BUILDERS[name] = builder


def all_workloads(spec_only: bool = False) -> List:
    """The paper's evaluation set: 18 SPEC + 16 mixes (34 workloads)."""
    workloads = [workload(name) for name in SPEC_NAMES]
    if not spec_only:
        workloads.extend(all_mixes())
    return workloads


def _call_with_timeout(fn: Callable[[], WorkloadResult], timeout_s: float):
    """Run ``fn`` under a wall-clock deadline.

    Uses ``signal.setitimer`` (Unix, main thread).  Where the timer is
    unavailable -- non-main thread, platforms without SIGALRM -- the
    call runs unbounded rather than failing: a missing guard degrades
    to the old behaviour, it does not break the sweep.
    """
    if timeout_s <= 0 or not hasattr(signal, "setitimer"):
        return fn()
    try:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
    except ValueError:  # not the main thread
        return fn()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _raise_timeout(signum, frame):
    raise RunTimeoutError("per-run wall-clock timeout expired")


def run_hardened(
    factory: SchemeFactory,
    target,
    epochs: int = 2,
    telemetry=None,
    fault_injector=None,
    timeout_s: float = 0.0,
    retries: int = 0,
    backoff_s: float = 0.5,
) -> WorkloadResult:
    """Run one workload with timeout and transient-failure retry.

    Only :class:`~repro.errors.RunTimeoutError` and ``OSError`` are
    treated as transient (retried with exponential backoff up to
    ``retries`` times); everything else is a real bug in the run and
    propagates immediately so the sweep's error ledger sees it.
    """

    def attempt() -> WorkloadResult:
        scheme = (
            factory(telemetry=telemetry)
            if telemetry is not None
            else factory()
        )
        if fault_injector is not None:
            scheme.attach_faults(fault_injector)
        simulator = SystemSimulator(scheme)
        return simulator.run(target, epochs=epochs)

    for retry in range(retries + 1):
        try:
            return _call_with_timeout(attempt, timeout_s)
        except (RunTimeoutError, OSError):
            if retry == retries:
                raise
            time.sleep(backoff_s * (2 ** retry))
    raise AssertionError("unreachable")


def gmean_slowdown(results: Dict[str, WorkloadResult]) -> float:
    """Geometric-mean slowdown across a suite (the paper's Gmean-34)."""
    return gmean([result.slowdown for result in results.values()])

