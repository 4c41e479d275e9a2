"""Amortized chunk dispatch and parent-side trace prewarming."""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter

import pytest

from repro.parallel import expand_grid, run_sweep_parallel
from repro.parallel.executor import (
    _CHUNKS_PER_WORKER,
    ExecOptions,
    _chunk_points,
    _execute_chunk,
    _execute_point,
    _prewarm_trace_cache,
)
from repro.workloads import (
    SyntheticWorkload,
    clear_trace_cache,
    spec,
    trace_cache_stats,
)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="relies on fork inheritance of the trace memo cache",
)


def _points(schemes=("aqua-sram", "victim-refresh"), workloads=("xz", "wrf")):
    return expand_grid(list(schemes), list(workloads), epochs=1, seed=7)


class TestChunkPoints:
    def test_empty_pending_yields_no_chunks(self):
        assert _chunk_points([], 4) == []

    def test_preserves_grid_order_and_loses_nothing(self):
        points = _points()
        chunks = _chunk_points(points, 2)
        flat = [p for chunk in chunks for p in chunk]
        assert flat == points

    def test_fewer_points_than_jobs_gives_singleton_chunks(self):
        points = _points(workloads=("xz",))  # 2 points
        chunks = _chunk_points(points, 8)
        assert [len(c) for c in chunks] == [1, 1]

    def test_large_grids_bound_task_count(self):
        points = _points(
            schemes=("aqua-sram",), workloads=("xz",)
        ) * 100  # synthetic long pending list
        jobs = 3
        chunks = _chunk_points(points, jobs)
        assert len(chunks) <= jobs * _CHUNKS_PER_WORKER
        assert sum(len(c) for c in chunks) == len(points)
        # Balanced: no chunk more than one point larger than another.
        sizes = {len(c) for c in chunks}
        assert max(sizes) - min(sizes) <= max(sizes)

    def test_single_job_still_chunks(self):
        points = _points()
        chunks = _chunk_points(points, 1)
        assert len(chunks) <= _CHUNKS_PER_WORKER
        assert [p for c in chunks for p in c] == points


class TestExecuteChunk:
    def test_chunk_payloads_match_pointwise_execution(self):
        clear_trace_cache()
        points = _points(workloads=("xz",))
        options = ExecOptions()
        chunked = _execute_chunk(points, options)
        pointwise = [_execute_point(p, options) for p in points]
        assert chunked == pointwise


class TestPrewarm:
    def test_prewarm_populates_cache_for_distinct_targets(self):
        clear_trace_cache()
        points = _points()  # 2 schemes x 2 workloads, same seed/epochs
        _prewarm_trace_cache(points)
        hits, misses, live = trace_cache_stats()
        # One generation per distinct (workload, seed, epochs) target.
        assert misses == 2
        assert live == 2
        assert hits == 0

    def test_prewarm_swallows_unknown_workloads(self):
        clear_trace_cache()
        points = _points(workloads=("xz",))
        bogus = [p.__class__(**{**p.__dict__, "workload": "no-such"})
                 for p in points[:1]]
        _prewarm_trace_cache(bogus + points)
        assert trace_cache_stats()[2] == 1

    @fork_only
    def test_sweep_runs_warm_after_prewarm(self):
        """jobs>1 sweeps prewarm in the parent: a following serial
        execution of the same grid is all cache hits."""
        clear_trace_cache()
        points = _points(workloads=("xz",))
        run_sweep_parallel(points, jobs=2)
        misses_after_parallel = trace_cache_stats()[1]
        run_sweep_parallel(points, jobs=1)
        hits, misses, _ = trace_cache_stats()
        assert misses == misses_after_parallel
        assert hits >= len(points)


#: xz and gcc are one generator each, mix04 four: 6 per epoch.
_ONCE_WORKLOADS = ("xz", "gcc", "mix04")


class TestEachTraceGeneratedOnce:
    """Across the parent and every worker, each distinct trace key is
    generated exactly once: in the parent when several points share it,
    otherwise in the worker that runs its point."""

    def _generations(self, monkeypatch, tmp_path, points):
        """``(pid, key)`` of every trace generation during the sweep.

        The hook is installed before the pool forks, so the workers
        inherit it; each writes its own lines to one append-mode file.
        """
        log = tmp_path / "generated.log"
        generate = SyntheticWorkload._generate_trace

        def logged(self, epoch):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {self.trace_key(epoch)!r}\n")
            return generate(self, epoch)

        monkeypatch.setattr(SyntheticWorkload, "_generate_trace", logged)
        clear_trace_cache()
        report = run_sweep_parallel(points, jobs=2)
        assert not report.failures
        lines = log.read_text(encoding="utf-8").splitlines()
        return [tuple(line.split(" ", 1)) for line in lines]

    @fork_only
    def test_one_scheme_generates_in_the_workers(
        self, monkeypatch, tmp_path
    ):
        points = expand_grid(["aqua-mm"], _ONCE_WORKLOADS, epochs=2)
        generations = self._generations(monkeypatch, tmp_path, points)
        keys = Counter(key for _, key in generations)
        assert len(keys) == 12
        assert set(keys.values()) == {1}
        assert str(os.getpid()) not in {pid for pid, _ in generations}

    @fork_only
    def test_two_schemes_generate_in_the_parent(self, monkeypatch, tmp_path):
        points = expand_grid(
            ["aqua-mm", "blockhammer"], _ONCE_WORKLOADS, epochs=2
        )
        generations = self._generations(monkeypatch, tmp_path, points)
        keys = Counter(key for _, key in generations)
        assert len(keys) == 12
        assert set(keys.values()) == {1}
        assert {pid for pid, _ in generations} == {str(os.getpid())}

    def test_prewarm_never_outgrows_the_cache(self, monkeypatch):
        monkeypatch.setattr(spec, "TRACE_CACHE_ENTRIES", 3)
        clear_trace_cache()
        points = expand_grid(
            ["aqua-mm", "blockhammer"], _ONCE_WORKLOADS, epochs=2
        )
        _prewarm_trace_cache(points)
        # 12 shared keys, but only as many generated as stay cached.
        hits, misses, live = trace_cache_stats()
        assert (hits, misses, live) == (0, 3, 3)


class TestDeterminism:
    def test_chunked_jobs_equal_serial_results(self):
        points = _points()
        serial = run_sweep_parallel(points, jobs=1)
        chunked = run_sweep_parallel(points, jobs=3)
        assert {
            k: v.to_dict() for k, v in serial.results.items()
        } == {
            k: v.to_dict() for k, v in chunked.results.items()
        }
        assert list(serial.results) == list(chunked.results)
