"""Scalar/vector equivalence of every scheme's ``access_epoch``.

The scalar chunk loop in :meth:`MitigationScheme.access_epoch` defines
the semantics; every vectorized override must produce an *identical*
:class:`WorkloadResult` (``to_dict`` equality, floats included) for the
same trace.  These tests run every registered scheme over several seeds
with the override active and with it forced back to the scalar loop,
and require exact equality.
"""

from __future__ import annotations

import pytest

from repro.core.aqua import AquaMitigation
from repro.dram.geometry import DramGeometry
from repro.mitigations.base import MitigationScheme
from repro.mitigations.blockhammer import Blockhammer
from repro.mitigations.none import NoMitigation
from repro.mitigations.rrs import RandomizedRowSwap
from repro.mitigations.victim_refresh import VictimRefresh
from repro.sim.runner import SCHEME_BUILDERS, baseline, run_hardened
from repro.workloads import SyntheticWorkload, WorkloadSpec, clear_trace_cache

#: Every class that overrides ``access_epoch`` (the monkeypatch targets).
_OVERRIDING = (
    AquaMitigation,
    VictimRefresh,
    RandomizedRowSwap,
    Blockhammer,
    NoMitigation,
)

#: A Table-II-shaped spec small enough to run every scheme quickly but
#: with rows in all three bands (so mitigations actually fire) and
#: background traffic (so spill/settle paths engage).
TINY_SPEC = WorkloadSpec(
    name="tiny-equiv", mpki=8.0, act_166_plus=10, act_500_plus=6,
    act_1k_plus=3,
)

#: Background-only spec: exercises the eventless-skip and sparse-feed
#: paths (no row crosses any threshold at T=1000).
COLD_SPEC = WorkloadSpec(
    name="cold-equiv", mpki=4.0, act_166_plus=0, act_500_plus=0,
    act_1k_plus=0,
)

SEEDS = (0, 7, 13)


def _tiny_workload(spec: WorkloadSpec, seed: int) -> SyntheticWorkload:
    return SyntheticWorkload(spec, seed=seed, max_background_acts=3000)


def _result(factory, target, epochs=2):
    return run_hardened(factory, target, epochs=epochs)


def _scalar_reference(monkeypatch, factory, target, epochs=2):
    """The same run with every override forced to the scalar loop."""
    for cls in _OVERRIDING:
        monkeypatch.setattr(
            cls, "access_epoch", MitigationScheme.access_epoch
        )
    try:
        return _result(factory, target, epochs=epochs)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("scheme", sorted(SCHEME_BUILDERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_registered_schemes_match_scalar(monkeypatch, scheme, seed):
    clear_trace_cache()
    target = _tiny_workload(TINY_SPEC, seed)
    builder = SCHEME_BUILDERS[scheme]
    fused = _result(builder(1000), target)
    scalar = _scalar_reference(monkeypatch, builder(1000), target)
    assert fused.to_dict() == scalar.to_dict()


@pytest.mark.parametrize("scheme", sorted(SCHEME_BUILDERS))
def test_cold_stream_matches_scalar(monkeypatch, scheme):
    """The eventless-skip / sparse-feed regime must also be exact."""
    clear_trace_cache()
    target = _tiny_workload(COLD_SPEC, 3)
    builder = SCHEME_BUILDERS[scheme]
    fused = _result(builder(1000), target)
    scalar = _scalar_reference(monkeypatch, builder(1000), target)
    assert fused.to_dict() == scalar.to_dict()


def test_baseline_scheme_matches_scalar(monkeypatch):
    target = _tiny_workload(TINY_SPEC, 1)
    fused = _result(baseline(), target)
    scalar = _scalar_reference(monkeypatch, baseline(), target)
    assert fused.to_dict() == scalar.to_dict()


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_aqua_spurious_install_path_matches_scalar(monkeypatch, scheme):
    """A 4-entry ART forces evictions, spill growth, and spurious
    installs -- the fused loop's surprise-crossing fallback path."""
    target = _tiny_workload(TINY_SPEC, 5)
    builder = SCHEME_BUILDERS[scheme]
    kwargs = {"tracker_entries_per_bank": 4}
    fused = _result(builder(1000, **kwargs), target)
    scalar = _scalar_reference(monkeypatch, builder(1000, **kwargs), target)
    assert fused.to_dict() == scalar.to_dict()


def test_blockhammer_cbf_estimator_uses_scalar_loop():
    """The CBF RowBlocker is order-sensitive, so its epoch feed must
    keep the scalar loop (the override falls back)."""
    scheme = Blockhammer(rowhammer_threshold=1000, estimator="cbf")
    import numpy as np

    rows = np.array([1, 2, 1], dtype=np.int64)
    counts = np.array([5, 5, 5], dtype=np.int64)
    scheme.access_epoch(rows, counts, 0.0, 10.0)
    assert scheme.stats.accesses == 15


#: The AQUA builders with the Hydra ART of Appendix B.  No
#: ``SCHEME_BUILDERS`` entry builds Hydra, so the registry sweeps above
#: never reach its fused-loop path.
HYDRA_SCHEMES = ("aqua-mm", "aqua-sram")

#: 16K rows: the workload's addressable space ends at row 14336, and
#: 2100 RQA slots put the first table/RQA row at 14279 (memory-mapped)
#: or 14284 (SRAM).  A trace confined to rows 14150-14269 therefore
#: shares Hydra group 111 (rows 14208-14335) with rows the scheme
#: observes outside the trace: quarantine destinations and table rows.
_SHARED_GROUP_GEOMETRY = DramGeometry(banks_per_rank=4, rows_per_bank=4096)


@pytest.mark.parametrize("scheme", HYDRA_SCHEMES)
@pytest.mark.parametrize(
    "spec, seed",
    [(TINY_SPEC, seed) for seed in SEEDS] + [(COLD_SPEC, 3)],
    ids=[f"tiny-{seed}" for seed in SEEDS] + ["cold-3"],
)
def test_hydra_schemes_match_scalar(monkeypatch, scheme, spec, seed):
    clear_trace_cache()
    target = _tiny_workload(spec, seed)
    builder = SCHEME_BUILDERS[scheme]
    fused = _result(builder(1000, tracker="hydra"), target)
    scalar = _scalar_reference(
        monkeypatch, builder(1000, tracker="hydra"), target
    )
    assert fused.to_dict() == scalar.to_dict()


@pytest.mark.parametrize("scheme", HYDRA_SCHEMES)
@pytest.mark.parametrize("seed", (0, 7))
def test_hydra_group_shared_with_reserved_rows_matches_scalar(
    monkeypatch, scheme, seed
):
    clear_trace_cache()
    geometry = _SHARED_GROUP_GEOMETRY
    target = SyntheticWorkload(
        TINY_SPEC, geometry=geometry, seed=seed,
        max_background_acts=3000, region_base=14150, region_rows=120,
    )
    kwargs = {"tracker": "hydra", "geometry": geometry, "rqa_slots": 2100}
    builder = SCHEME_BUILDERS[scheme]
    fused = _result(builder(1000, **kwargs), target)
    scalar = _scalar_reference(monkeypatch, builder(1000, **kwargs), target)
    assert fused.migrations > 0
    assert fused.to_dict() == scalar.to_dict()
