"""The columnar event log against a list of ``TraceEvent`` objects.

:class:`ReferenceTracer` is the tracer as a plain ring of
``TraceEvent`` objects (a ``deque`` with ``maxlen``) behind the same
error-diffusion sampler.  For every input the columnar
:class:`EventTracer` must agree with it on the events (kind, and every
value with its exact type and repr, attribute order included), the
per-kind counts and their order, the counters, the JSONL and Chrome
bytes, and a pickle round trip taken in the middle of the stream.
"""

from __future__ import annotations

import io
import json
import pickle
import zlib
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.telemetry.events import EventLog, EventTracer, TraceEvent

EXTRA = {"workload": "gcc", "label": "aqua-mm"}


class ReferenceTracer:
    """The list-of-objects tracer the columnar log must reproduce."""

    def __init__(self, capacity, sample_rate):
        self.ring = deque(maxlen=capacity)
        self.sample_rate = sample_rate
        self.offered = 0
        self.sampled_out = 0
        self._acc = 0.0

    def emit(self, kind, ts_ns, **attrs):
        self.offered += 1
        if self.sample_rate < 1.0:
            self._acc += self.sample_rate
            if self._acc < 1.0:
                self.sampled_out += 1
                return False
            self._acc -= 1.0
        self.ring.append(TraceEvent(ts_ns=ts_ns, kind=kind, attrs=attrs))
        return True

    @property
    def dropped(self):
        return self.offered - self.sampled_out - len(self.ring)

    def kind_counts(self):
        counts = {}
        for event in self.ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def jsonl(self, extra):
        return "".join(
            json.dumps(event.to_json_dict(extra)) + "\n"
            for event in self.ring
        )

    def chrome(self, extra):
        tag = ",".join(f"{k}={v}" for k, v in sorted(extra.items()))
        tid = zlib.crc32(tag.encode("utf-8")) % 1_000_000
        entries = [
            {
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.ts_ns / 1_000.0,
                "pid": 0,
                "tid": tid,
                "args": {**event.attrs, **extra},
            }
            for event in self.ring
        ]
        out = io.StringIO()
        json.dump({"traceEvents": entries, "displayTimeUnit": "ns"}, out)
        return out.getvalue()


def _exact(value):
    return (type(value), repr(value))


def _canonical(events):
    """Events with every value's exact type and repr, in order."""
    return [
        (
            event.kind,
            _exact(event.ts_ns),
            [(name, _exact(value)) for name, value in event.attrs.items()],
        )
        for event in events
    ]


def _run(stream, capacity, sample_rate, reship_at):
    """Feed ``stream`` to both tracers; pickle the columnar log once,
    after ``reship_at`` events, and keep recording into the copy."""
    tracer = EventTracer(capacity=capacity, sample_rate=sample_rate)
    reference = ReferenceTracer(capacity, sample_rate)
    for index, (kind, ts_ns, attrs) in enumerate(stream):
        if index == reship_at:
            tracer.log = pickle.loads(pickle.dumps(tracer.log))
        recorded = tracer.emit(kind, ts_ns, **dict(attrs))
        assert recorded == reference.emit(kind, ts_ns, **dict(attrs))
    return tracer, reference


def _assert_agree(tracer, reference, tmp_path):
    assert _canonical(tracer.events()) == _canonical(reference.ring)
    assert len(tracer.log) == len(reference.ring)
    assert list(tracer.kind_counts().items()) == list(
        reference.kind_counts().items()
    )
    assert tracer.offered == reference.offered
    assert tracer.sampled_out == reference.sampled_out
    assert tracer.dropped == reference.dropped
    assert tracer.recorded == reference.offered - reference.sampled_out

    jsonl = tmp_path / "t.jsonl"
    assert tracer.export_jsonl(str(jsonl), extra=EXTRA) == len(reference.ring)
    assert jsonl.read_text(encoding="utf-8") == reference.jsonl(EXTRA)
    chrome = tmp_path / "t.json"
    assert tracer.export_chrome_trace(str(chrome), extra=EXTRA) == len(
        reference.ring
    )
    assert chrome.read_text(encoding="utf-8") == reference.chrome(EXTRA)

    shipped = pickle.loads(pickle.dumps(tracer.log))
    assert isinstance(shipped, EventLog)
    assert _canonical(shipped) == _canonical(reference.ring)
    assert list(shipped.kind_counts().items()) == list(
        reference.kind_counts().items()
    )


# ------------------------------------------------------------ strategies

NAMES = ("row", "spurious", "evicted_row", "reason", "estimate")

values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-300, max_value=300),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1]),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.text(max_size=4),
    # Not a column type: held as the object itself.
    st.just(np.float64(1.5)),
)

event = st.tuples(
    st.sampled_from(["migration", "tracker_install", "eviction"]),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.just(-0.0),
        st.integers(min_value=0, max_value=2**64),
    ),
    # Unique names in drawn order: the same kind sees several orders.
    st.lists(
        st.tuples(st.sampled_from(NAMES), values),
        unique_by=lambda pair: pair[0],
        max_size=4,
    ),
)

#: One attribute name seen as bool, then int, then None, in one kind.
TYPE_CHANGES = [
    ("tracker_install", 1.0, [("spurious", True)]),
    ("tracker_install", 2.0, [("spurious", 5)]),
    ("tracker_install", 3.0, [("spurious", None)]),
    ("tracker_install", 4.0, [("spurious", False)]),
    ("migration", -0.0, [("row", 2**63), ("reason", "demand")]),
    ("migration", 5, [("reason", "swap"), ("row", 3)]),
]


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(event, max_size=160),
    capacity=st.sampled_from([1, 2, 7, 64, 10_000]),
    sample_rate=st.sampled_from([1.0, 0.3]),
    reship_at=st.integers(min_value=0, max_value=160),
)
@example(stream=TYPE_CHANGES, capacity=10_000, sample_rate=1.0,
         reship_at=3)
@example(stream=TYPE_CHANGES, capacity=1, sample_rate=1.0, reship_at=2)
@example(stream=TYPE_CHANGES * 40, capacity=64, sample_rate=0.3,
         reship_at=100)
def test_columnar_tracer_matches_reference(
    stream, capacity, sample_rate, reship_at, tmp_path_factory
):
    tracer, reference = _run(stream, capacity, sample_rate, reship_at)
    _assert_agree(tracer, reference, tmp_path_factory.mktemp("log"))


@pytest.mark.parametrize("capacity", [1, 64, 3_000])
def test_ring_wrapping_many_times(capacity, tmp_path):
    """Thousands of events through a ring: the offsets, the compactions
    and the batched moves of pending rows into columns (one of them
    widening a column for an int above 2**63) must keep exactly the
    newest ``capacity`` events."""
    stream = []
    for i in range(5_000):
        if i % 3 == 0:
            stream.append(("tracker_install", float(i), [
                ("row", i), ("estimate", i % 50), ("spill", i % 7),
                ("spurious", i % 2 == 0),
            ]))
        elif i % 3 == 1:
            stream.append(("quarantine_rotation", float(i), [
                ("row", i), ("evicted_row", None if i % 4 else i - 1),
            ]))
        else:
            stream.append(("migration", float(i), [
                ("row", 2**64 + i if i == 4_001 else i),
                ("reason", "demand"), ("busy_ns", i / 3),
            ]))
    tracer, reference = _run(stream, capacity, 1.0, reship_at=2_501)
    assert tracer.dropped == 5_000 - capacity
    _assert_agree(tracer, reference, tmp_path)


def test_shipped_log_narrows_int_columns():
    """Small ints ship in one byte each (plus 8 for the timestamp and 1
    for the order column); the log still reads back the values it
    recorded and accepts wider ones after the round trip."""
    log = EventLog()
    for i in range(1_000):
        log.append("tracker_install", float(i), {"estimate": i % 200})
    shipped = pickle.loads(pickle.dumps(log))
    assert len(pickle.dumps(log)) < 1_000 * 11
    shipped.append("tracker_install", 1e3, {"estimate": 2**40})
    assert [e.attrs["estimate"] for e in shipped] == [
        i % 200 for i in range(1_000)
    ] + [2**40]
