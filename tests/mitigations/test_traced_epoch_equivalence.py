"""Traced AQUA epochs: the fused loop against the scalar loop.

With telemetry attached, :meth:`AquaMitigation.access_epoch` still runs
its fused loop (DESIGN.md §11).  It must offer the tracer and the
registry exactly what the scalar chunk loop of
:meth:`MitigationScheme.access_epoch` offers: the same events in the
same order with the same timestamps and attributes (attribute order
included), the same offered/dropped counts, the same registry snapshot
with every float equal bit for bit, and the same
:class:`WorkloadResult`, timeline included.  Each test runs one
telemetered workload twice, once as built and once with the scheme's
``access_epoch`` replaced by the scalar loop, and requires that the
first run never fell back to the scalar loop.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.aqua import AquaMitigation
from repro.core.config import AquaConfig
from repro.dram.geometry import DramGeometry
from repro.mitigations.base import MitigationScheme
from repro.sim.runner import SCHEME_BUILDERS, run_hardened
from repro.sim.system import SystemSimulator
from repro.telemetry import Telemetry
from repro.workloads import SyntheticWorkload, clear_trace_cache
from repro.workloads.trace import EpochTrace
from tests.mitigations.test_epoch_equivalence import (
    COLD_SPEC,
    SEEDS,
    TINY_SPEC,
)

#: Both table modes with every tracker AQUA can build.
CONFIGS = {
    f"{scheme}-{tracker}": (scheme, {"tracker": tracker})
    for scheme in ("aqua-mm", "aqua-sram")
    for tracker in ("misra-gries", "hydra", "exact")
}


def _bits(value):
    """``value`` with every float replaced by its hex form, so that
    ``==`` compares floats bit for bit (``-0.0`` and ``0.0`` differ)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _event_record(event):
    """Kind, timestamp and attributes of one event, attribute order kept."""
    return (
        event.kind,
        _bits(event.ts_ns),
        [(name, _bits(item)) for name, item in event.attrs.items()],
    )


#: The scalar loop bumps these unlabeled counters once per offered
#: event of the kind, sampled out or not.
_TRACKER_COUNTERS = {
    "tracker_install": "tracker_installs_total",
    "tracker_evict": "tracker_evictions_total",
}


class _CountingTelemetry(Telemetry):
    """Telemetry that also counts every offered event by kind."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.offered_kinds = Counter()

    def event(self, kind, ts_ns, **attrs):
        self.offered_kinds[kind] += 1
        return super().event(kind, ts_ns, **attrs)


class _Probe:
    """Counts the per-chunk ``access_batch`` calls of each built scheme."""

    def __init__(self, factory, scalar):
        self.factory = factory
        self.scalar = scalar
        self.batches = 0

    def __call__(self, telemetry=None):
        scheme = self.factory(telemetry=telemetry)
        if self.scalar:
            scheme.access_epoch = partial(
                MitigationScheme.access_epoch, scheme
            )
        access_batch = scheme.access_batch

        def counted(*args):
            self.batches += 1
            return access_batch(*args)

        scheme.access_batch = counted
        return scheme


def _observe(telemetry, result):
    """Everything a traced run offers, in bit-comparable form."""
    telemetry.collect()
    tracer = telemetry.tracer
    return {
        "events": [_event_record(event) for event in tracer.events()],
        "offered": tracer.offered,
        "offered_kinds": dict(telemetry.offered_kinds),
        "dropped": tracer.dropped,
        "metrics": _bits(telemetry.registry.snapshot()),
        "result": _bits(result.to_dict()),
    }


def _traced_run(run, factory, scalar, telemetry_kwargs):
    telemetry = _CountingTelemetry(**telemetry_kwargs)
    probe = _Probe(factory, scalar)
    result = run(probe, telemetry)
    return _observe(telemetry, result), result, probe.batches


def _assert_traced_matches_scalar(run, factory, **telemetry_kwargs):
    """Run traced through the fused loop and through the scalar loop,
    and require identical offerings.  Returns the fused run's
    observations and result."""
    fused, result, fused_batches = _traced_run(
        run, factory, False, telemetry_kwargs
    )
    scalar, _, scalar_batches = _traced_run(
        run, factory, True, telemetry_kwargs
    )
    # The fused loop engaged; the reference walked every chunk.
    assert fused_batches == 0
    assert scalar_batches > 0
    assert fused["events"] == scalar["events"]
    assert (fused["offered"], fused["dropped"]) == (
        scalar["offered"],
        scalar["dropped"],
    )
    assert fused["offered_kinds"] == scalar["offered_kinds"]
    assert fused["metrics"] == scalar["metrics"]
    # The tracker counters stay what one unlabeled increment per
    # offered event made them, with no series for a kind never offered.
    tracker_series = {
        name: value
        for name, value in fused["metrics"].items()
        if name.startswith(tuple(_TRACKER_COUNTERS.values()))
    }
    assert tracker_series == {
        series: float(scalar["offered_kinds"][kind]).hex()
        for kind, series in _TRACKER_COUNTERS.items()
        if scalar["offered_kinds"].get(kind)
    }
    assert fused["result"] == scalar["result"]
    return fused, result


def _workload_run(target, epochs=2):
    def run(factory, telemetry):
        return run_hardened(factory, target, epochs=epochs, telemetry=telemetry)

    return run


def _tiny_workload(spec, seed):
    return SyntheticWorkload(spec, seed=seed, max_background_acts=3000)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize(
    "spec, seed",
    [(TINY_SPEC, seed) for seed in SEEDS] + [(COLD_SPEC, seed) for seed in SEEDS],
    ids=[f"tiny-{seed}" for seed in SEEDS] + [f"cold-{seed}" for seed in SEEDS],
)
def test_traced_fused_loop_matches_scalar(config, spec, seed):
    clear_trace_cache()
    scheme, kwargs = CONFIGS[config]
    factory = SCHEME_BUILDERS[scheme](1000, **kwargs)
    fused, _ = _assert_traced_matches_scalar(
        _workload_run(_tiny_workload(spec, seed)), factory
    )
    kinds = {event[0] for event in fused["events"]}
    if kwargs["tracker"] == "misra-gries":
        assert "tracker_install" in kinds


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_sampled_trace_matches_scalar(scheme):
    factory = SCHEME_BUILDERS[scheme](1000)
    fused, _ = _assert_traced_matches_scalar(
        _workload_run(_tiny_workload(TINY_SPEC, 0)), factory,
        sample_rate=0.3,
    )
    assert len(fused["events"]) < fused["offered"]


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_wrapping_ring_matches_scalar(scheme):
    factory = SCHEME_BUILDERS[scheme](1000)
    fused, _ = _assert_traced_matches_scalar(
        _workload_run(_tiny_workload(TINY_SPEC, 7)), factory, capacity=64
    )
    assert len(fused["events"]) == 64
    assert fused["dropped"] > 0


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
def test_rqa_pressure_with_lazy_drains_matches_scalar(scheme):
    """An 8-slot RQA laps over the previous epochs' residents (lazy
    drains) and throttles what it cannot hold; a 2-entry ART evicts
    and installs spuriously."""
    factory = SCHEME_BUILDERS[scheme](
        1000, rqa_slots=8, rqa_full_policy="throttle",
        tracker_entries_per_bank=2,
    )
    fused, result = _assert_traced_matches_scalar(
        _workload_run(_tiny_workload(TINY_SPEC, 13), epochs=3), factory
    )
    kinds = {event[0] for event in fused["events"]}
    assert result.evictions > 0
    assert {"eviction", "throttle", "tracker_evict"} <= kinds
    assert result.extra["spurious_installs"] > 0


#: 16K rows: the workload's addressable space ends at row 14336, and
#: 2100 RQA slots put the first table/RQA row at 14279 (memory-mapped)
#: or 14284 (SRAM).  A trace confined to rows 14150-14269 sits next to
#: the rows the scheme observes outside the trace: quarantine
#: destinations and, memory-mapped, the table rows its lookups hammer.
_TABLE_ROW_GEOMETRY = DramGeometry(banks_per_rank=4, rows_per_bank=4096)


@pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram"))
@pytest.mark.parametrize("tracker", ("misra-gries", "hydra"))
@pytest.mark.parametrize("seed", (0, 7))
def test_hammered_table_rows_match_scalar(scheme, tracker, seed):
    clear_trace_cache()
    geometry = _TABLE_ROW_GEOMETRY
    target = SyntheticWorkload(
        TINY_SPEC, geometry=geometry, seed=seed,
        max_background_acts=3000, region_base=14150, region_rows=120,
    )
    factory = SCHEME_BUILDERS[scheme](
        1000, tracker=tracker, geometry=geometry, rqa_slots=2100
    )
    fused, result = _assert_traced_matches_scalar(
        _workload_run(target), factory
    )
    assert result.migrations > 0
    if scheme == "aqua-mm":
        quarantined = fused["metrics"]["table_row_quarantines_total{scheme=aqua}"]
        assert float.fromhex(quarantined) > 0


class _ChunkWorkload:
    """A workload whose epoch traces are given chunk lists."""

    name = "chunks"
    memory_boundness = 0.5

    def __init__(self, epochs):
        self.epochs = epochs

    def epoch_trace(self, epoch):
        rows, counts = zip(*self.epochs[epoch])
        return EpochTrace(
            rows=np.asarray(rows, dtype=np.int64),
            counts=np.asarray(counts, dtype=np.int64),
        )


#: T_RH 16 (tracker threshold 8) on 16K rows with a 24-slot RQA.
_SMALL_GEOMETRY = DramGeometry(banks_per_rank=4, rows_per_bank=4096)
_THRESHOLD = 8


def _landing_counts():
    """Chunk sizes on, just below and just above threshold multiples."""
    return st.builds(
        lambda multiple, offset: max(1, multiple * _THRESHOLD + offset),
        st.integers(0, 3),
        st.sampled_from((-1, 0, 1)),
    )


_epoch_chunks = st.lists(
    st.tuples(st.integers(0, 47), _landing_counts()), min_size=1, max_size=40
)


@given(
    table_mode=st.sampled_from(("memory-mapped", "sram")),
    tracker=st.sampled_from(("misra-gries", "hydra", "exact")),
    entries=st.integers(2, 6),
    epochs=st.lists(_epoch_chunks, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_threshold_landings_match_scalar(table_mode, tracker, entries, epochs):
    config = AquaConfig(
        rowhammer_threshold=2 * _THRESHOLD,
        geometry=_SMALL_GEOMETRY,
        table_mode=table_mode,
        tracker=tracker,
        rqa_slots=24,
        tracker_entries_per_bank=entries,
        rqa_full_policy="throttle",
    )
    workload = _ChunkWorkload(epochs)

    def factory(telemetry=None):
        return AquaMitigation(config, telemetry=telemetry)

    def run(build, telemetry):
        simulator = SystemSimulator(build(telemetry=telemetry))
        return simulator.run(workload, epochs=len(epochs))

    _assert_traced_matches_scalar(run, factory)
