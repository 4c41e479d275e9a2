"""Trace bytes are pinned, and the phase sort keeps them.

The digests were recorded before the chunk-phase sort switched from a
stable sort to :func:`~repro.workloads.spec.phase_order`.  Any change
to trace generation that moves a byte fails here before it reaches the
paper results or the benchmark goldens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import all_mixes, clear_trace_cache, workload
from repro.workloads.spec import phase_order


def _digest(trace) -> tuple:
    return (
        str(trace.rows.dtype),
        str(trace.counts.dtype),
        len(trace.rows),
        hashlib.sha256(trace.rows.tobytes()).hexdigest(),
        hashlib.sha256(trace.counts.tobytes()).hexdigest(),
    )


# (workload, seed, epoch) -> (row dtype, count dtype, chunks,
# sha256(rows), sha256(counts)).  A mix has no seed of its own: its
# members use seed ``index + 1``, so mix00 and mix05 cover two.
PINNED = {
    ("gcc", 0, 0): (
        "int64", "int64", 80207,
        "a0a8bcd51d6d4fb7edda5db9b76453fb6e88e1dea33ce77f2a52a3e0158a3d48",
        "206ac9e65649b11fa1267c772750798e8927312a227e4abc710129374dbbd346",
    ),
    ("gcc", 0, 1): (
        "int64", "int64", 80169,
        "2ef8c42ce19e49ad453331823bb5e2522a30d2d8ff856c4f7f649a6af3fff78a",
        "67fef597e50137ceea2ba54220fde22ee44a2c6241b9827419971bd4686e361e",
    ),
    ("gcc", 7, 0): (
        "int64", "int64", 80134,
        "8ad4d2aff442b74e8ac066d47d90badb9ef75dd7ad7c3ed1756781f081b27523",
        "4ec5d86d776ec13e76eb27a34fc5c1ed57b8eab24ba3e24c493464e91b81bc4b",
    ),
    ("gcc", 7, 1): (
        "int64", "int64", 80201,
        "e3aea9199e6418f3ef7913619ee53e91c1def43a06579d0ed798c7a10f32b92e",
        "e0ca7221bc1f1f79b954dafd9d0d303a041810e161569493f76e22623f859533",
    ),
    ("mix00", 1, 0): (
        "int64", "int64", 152302,
        "8298c9a945eeef8885cc001735fb6822248c8af5b4c7e85cf87a8bc9e19eae6d",
        "0d063d447c8cc903938e1aec13bca1f5ca64c752d19dbb2c743b033cff4980c0",
    ),
    ("mix00", 1, 1): (
        "int64", "int64", 152179,
        "c5278db1ecb9c684bdbebcd08c00362c62ac6e1a7b910b862929d3a6b0797f11",
        "46d309c5c3b7d8b6e872e97ccc5ffc45aa0f562ce3662592c9c8708b54c993a7",
    ),
    ("mix05", 6, 0): (
        "int64", "int64", 233586,
        "35a54ededca4a1ec88eb9f1a043d131b30e2cb9c7e087f2fa5d44b952c615dca",
        "bea1f15bdf8107f5e1476681f368830792498c827cb533cf97c4cc32beae03f0",
    ),
    ("mix05", 6, 1): (
        "int64", "int64", 233541,
        "f526ff69ecc328a43bb578b47a56cedca79c4718f4594ee800e3741cfad2fb53",
        "b0f333ced5ed4d1215ef8faa9930525d071d8d2329946e709350811123992671",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=str)
def test_trace_bytes_are_pinned(key):
    name, seed, epoch = key
    clear_trace_cache()
    if name.startswith("mix"):
        (target,) = [mix for mix in all_mixes() if mix.name == name]
        assert {member.seed for member in target.members} == {seed}
    else:
        target = workload(name, seed=seed)
    assert _digest(target.epoch_trace(epoch)) == PINNED[key]


def _stable(phase: np.ndarray) -> list:
    return np.argsort(phase, kind="stable").tolist()


class TestPhaseOrder:
    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_lengths(self, n):
        phase = np.random.default_rng(n).random(n)
        assert phase_order(phase).tolist() == _stable(phase)

    @pytest.mark.parametrize("n", [2, 17, 1000])
    def test_all_equal(self, n):
        phase = np.full(n, 0.25)
        assert phase_order(phase).tolist() == list(range(n))

    def test_forced_ties_among_random_phases(self):
        rng = np.random.default_rng(3)
        phase = rng.random(5000)
        phase[rng.integers(0, 5000, size=800)] = phase[:800]
        assert phase_order(phase).tolist() == _stable(phase)

    def test_nan_takes_the_stable_sort(self):
        phase = np.array([0.5, np.nan, 0.1, np.nan, 0.3])
        assert phase_order(phase).tolist() == _stable(phase)

    @given(
        st.lists(
            st.sampled_from([0.0, 0.1, 0.15, 0.5, 1.0, 1.15]), max_size=60
        )
        | st.lists(
            st.floats(0, 1.15, allow_nan=False), unique=True, max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, values):
        phase = np.array(values, dtype=np.float64)
        assert phase_order(phase).tolist() == _stable(phase)
