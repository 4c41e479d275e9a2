"""Observability substrate: metrics, event tracing, epoch snapshots.

Three pieces, designed to be threaded through the whole simulation
stack via ``MitigationScheme(telemetry=...)``:

* :class:`~repro.telemetry.metrics.MetricsRegistry` -- labeled
  counters, gauges, and histograms with cheap ``snapshot()``/``reset()``.
* :class:`~repro.telemetry.events.EventTracer` -- a bounded ring buffer
  of structured events at simulated-time timestamps, held as typed
  columns (:class:`~repro.telemetry.events.EventLog`) and exportable as
  JSONL or the Chrome trace-event format.
* :class:`~repro.telemetry.core.Telemetry` -- the facade combining both
  plus the per-epoch snapshot timeline; :data:`NULL_TELEMETRY` is the
  shared no-op default, so uninstrumented runs stay allocation-free.

See DESIGN.md ("Telemetry and the event taxonomy") for the event kinds
and the timestamp convention.
"""

from repro.telemetry.core import (
    EpochSnapshot,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
)
from repro.telemetry.events import (
    DEFAULT_CAPACITY,
    EventLog,
    EventTracer,
    TraceEvent,
    load_trace,
    load_trace_lenient,
    tag_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_series_table,
)
from repro.telemetry.summary import (
    TraceSummary,
    render_summary,
    summarize_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "EpochSnapshot",
    "EventLog",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TraceEvent",
    "TraceSummary",
    "load_trace",
    "load_trace_lenient",
    "render_series_table",
    "render_summary",
    "summarize_trace",
    "tag_events",
    "write_chrome_trace",
    "write_jsonl",
]
