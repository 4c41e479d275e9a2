"""Traced sweeps ship each run's columnar event log to the parent.

A worker pickles its run's :class:`~repro.telemetry.events.EventLog`
whole, so the events the parent holds must be the ones ``jobs=1``
records inline (kind, timestamp and every attribute value with its
exact type, in order), and the shipped log must stay a few bytes per
event rather than one pickled object and dict each.
"""

from __future__ import annotations

import pickle

import pytest

from repro.parallel import expand_grid, run_sweep_parallel
from repro.telemetry import EventLog

#: Bytes per event a shipped log may pickle to (a list of TraceEvent
#: objects pickles to about 63).
MAX_BYTES_PER_EVENT = 40


def _exact(events):
    return [
        (
            event.kind,
            type(event.ts_ns), event.ts_ns,
            [(name, type(value), value) for name, value in event.attrs.items()],
        )
        for event in events
    ]


@pytest.fixture(scope="module")
def reports():
    points = expand_grid(["aqua-mm"], ["gcc", "mcf"], epochs=1)
    return {
        jobs: run_sweep_parallel(points, jobs=jobs, trace=True)
        for jobs in (1, 2)
    }


def test_shipped_events_equal_inline_events(reports):
    serial, parallel = reports[1], reports[2]
    assert not serial.failures and not parallel.failures
    assert list(serial.events) == list(parallel.events)
    assert serial.trace_dropped == parallel.trace_dropped
    for key in serial.events:
        assert _exact(serial.events[key]) == _exact(parallel.events[key])
        assert (
            serial.events[key].kind_counts()
            == parallel.events[key].kind_counts()
        )


def test_shipped_log_is_compact(reports):
    for key, log in reports[2].events.items():
        assert isinstance(log, EventLog)
        assert len(log) > 10_000, key
        per_event = len(pickle.dumps(log)) / len(log)
        assert per_event <= MAX_BYTES_PER_EVENT, (key, per_event)
