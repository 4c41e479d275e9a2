"""End-to-end instrumentation: events agree with scheme counters."""

import json

import numpy as np
import pytest

from repro.core.aqua import AquaMitigation
from repro.core.config import AquaConfig
from repro.dram.geometry import DramGeometry
from repro.sim import runner
from repro.sim.stats import WorkloadResult
from repro.sim.system import SystemSimulator
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads import SyntheticWorkload
from repro.workloads.spec import workload
from repro.workloads.trace import EpochTrace
from tests.mitigations.test_epoch_equivalence import TINY_SPEC


GEOMETRY = DramGeometry(banks_per_rank=4, rows_per_bank=4096)


def _small_aqua(telemetry=None):
    return AquaMitigation(
        AquaConfig(
            rowhammer_threshold=128,
            geometry=GEOMETRY,
            rqa_slots=64,
            tracker_entries_per_bank=64,
        ),
        telemetry=telemetry,
    )


def _hammer(scheme, rows=16, per_row=150):
    """Drive enough hot rows through the scheme to force migrations
    (well under the RQA's 64 intra-epoch slots)."""
    now = 0.0
    for i in range(rows):
        scheme.access_batch(100 + 2 * i, per_row, now)
        now += 50_000.0
    return now


class TestEventCounterAgreement:
    def test_migration_events_match_stats(self):
        telemetry = Telemetry()
        scheme = _small_aqua(telemetry)
        _hammer(scheme)
        counts = telemetry.tracer.kind_counts()
        assert scheme.stats.migrations > 0
        assert counts["migration"] == scheme.stats.migrations
        assert counts.get("eviction", 0) == scheme.stats.evictions
        assert counts["quarantine_rotation"] == scheme.rqa.allocations

    def test_migration_counter_matches_events(self):
        telemetry = Telemetry()
        scheme = _small_aqua(telemetry)
        _hammer(scheme)
        total = sum(
            value
            for key, value in telemetry.registry.snapshot().items()
            if key.startswith("migrations_total{")
        )
        assert total == scheme.stats.migrations

    def test_event_timestamps_monotone_in_simulated_time(self):
        telemetry = Telemetry()
        scheme = _small_aqua(telemetry)
        _hammer(scheme)
        stamps = [event.ts_ns for event in telemetry.tracer.events()]
        assert stamps == sorted(stamps)
        assert stamps[-1] > 0.0


def _tracker_counters(telemetry):
    """The unlabeled install/evict counter series, when present."""
    telemetry.collect()
    snapshot = telemetry.registry.snapshot()
    return {
        name: snapshot[name]
        for name in ("tracker_installs_total", "tracker_evictions_total")
        if name in snapshot
    }


class TestTrackerEventCounters:
    """``tracker_installs_total`` / ``tracker_evictions_total`` count
    exactly the ``tracker_install`` / ``tracker_evict`` events offered,
    through the fused AQUA loop and the scalar RRS loop alike."""

    @staticmethod
    def _run(scheme, **kwargs):
        telemetry = Telemetry(sample_rate=1.0)
        target = SyntheticWorkload(
            TINY_SPEC, seed=3, max_background_acts=3000
        )
        factory = runner.SCHEME_BUILDERS[scheme](1000, **kwargs)
        runner.run_hardened(factory, target, epochs=2, telemetry=telemetry)
        return telemetry

    @pytest.mark.parametrize("scheme", ("aqua-mm", "aqua-sram", "rrs"))
    def test_counters_equal_event_counts(self, scheme):
        telemetry = self._run(scheme, tracker_entries_per_bank=8)
        counts = telemetry.tracer.kind_counts()
        assert telemetry.tracer.dropped == 0
        assert counts["tracker_install"] > 0
        assert counts["tracker_evict"] > 0
        assert _tracker_counters(telemetry) == {
            "tracker_installs_total": counts["tracker_install"],
            "tracker_evictions_total": counts["tracker_evict"],
        }

    @pytest.mark.parametrize("scheme", ("aqua-mm", "rrs"))
    def test_run_without_evictions_has_no_eviction_series(self, scheme):
        telemetry = self._run(scheme)
        counts = telemetry.tracer.kind_counts()
        assert "tracker_evict" not in counts
        assert _tracker_counters(telemetry) == {
            "tracker_installs_total": counts["tracker_install"]
        }

    def test_run_without_installs_has_no_series(self):
        telemetry = Telemetry()
        scheme = runner.aqua_memory_mapped(1000)(telemetry=telemetry)
        SystemSimulator(scheme).run(_IdleWorkload(), epochs=2)
        assert "tracker_install" not in telemetry.tracer.kind_counts()
        assert _tracker_counters(telemetry) == {}


class _IdleWorkload:
    """A workload whose every epoch activates nothing."""

    name = "idle"
    memory_boundness = 0.5

    def epoch_trace(self, epoch):
        empty = np.empty(0, dtype=np.int64)
        return EpochTrace(rows=empty, counts=empty.copy())


class TestNullPath:
    def test_default_scheme_uses_shared_null_object(self):
        scheme = _small_aqua()
        assert scheme.telemetry is NULL_TELEMETRY
        assert scheme.rqa.telemetry is NULL_TELEMETRY

    def test_uninstrumented_run_behaves_identically(self):
        plain = _small_aqua()
        traced = _small_aqua(Telemetry())
        _hammer(plain)
        _hammer(traced)
        assert plain.stats.migrations == traced.stats.migrations
        assert plain.stats.busy_ns == traced.stats.busy_ns
        assert plain.rqa.allocations == traced.rqa.allocations

    def test_simulator_result_has_no_timeline_without_telemetry(self):
        scheme = runner.aqua_memory_mapped(1000)()
        result = SystemSimulator(scheme).run(workload("xz"), epochs=1)
        assert result.timeline is None


@pytest.fixture(scope="module")
def traced_run():
    """One fully-telemetered gcc run, shared across assertions."""
    telemetry = Telemetry()
    scheme = runner.aqua_memory_mapped(1000)(telemetry=telemetry)
    simulator = SystemSimulator(scheme)
    result = simulator.run(workload("gcc"), epochs=2)
    return telemetry, simulator, result


class TestSimulatorTimeline:
    def test_timeline_one_snapshot_per_epoch(self, traced_run):
        telemetry, simulator, result = traced_run
        assert [s.epoch for s in result.timeline] == [0, 1]
        epoch_ns = simulator.timing.trefw_ns
        assert [s.ts_ns for s in result.timeline] == [
            epoch_ns, 2 * epoch_ns
        ]
        # The deltas cover collector-fed series: epoch totals sum to
        # the final counter values.
        migrated = sum(
            s.deltas.get("scheme_migrations_total{scheme=aqua}", 0.0)
            for s in result.timeline
        )
        assert migrated == result.migrations > 0

    def test_boundary_events_carry_rqa_occupancy(self, traced_run):
        telemetry, _, result = traced_run
        boundaries = [
            e for e in telemetry.tracer.events()
            if e.kind == "refresh_window"
        ]
        assert len(boundaries) == result.epochs == 2
        assert boundaries[-1].attrs["rqa_occupancy"] > 0
        assert boundaries[-1].attrs["workload"] == "gcc"

    def test_trace_agrees_with_result_counters(self, traced_run):
        telemetry, _, result = traced_run
        counts = telemetry.tracer.kind_counts()
        assert telemetry.tracer.dropped == 0
        assert counts["migration"] == result.migrations > 0
        assert counts.get("eviction", 0) == result.evictions
        assert counts["quarantine_rotation"] == (
            result.extra["rqa_allocations"]
        )


class TestResultSerialization:
    def test_to_dict_round_trips_through_json(self, traced_run):
        _, _, result = traced_run
        assert result.lookup_breakdown  # aqua tracks lookup outcomes
        assert result.extra["rqa_allocations"] > 0
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = WorkloadResult.from_dict(payload)
        assert rebuilt == result

    def test_round_trip_without_optional_fields(self):
        result = WorkloadResult(
            workload="w", scheme="s", epochs=1, activations=10,
            migrations=1, row_moves=1, evictions=0, busy_ns=5.0,
            table_dram_ns=0.0, peak_stall_ns=0.0, slowdown=1.01,
            mem_fraction=0.5,
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert WorkloadResult.from_dict(payload) == result
