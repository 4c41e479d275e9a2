"""The ``Telemetry`` facade threaded through the simulation stack.

One ``Telemetry`` object pairs a :class:`MetricsRegistry` with an
:class:`EventTracer` and owns the per-epoch snapshot timeline.  It is
handed to :class:`~repro.mitigations.base.MitigationScheme` at
construction and flows from there into the quarantine area, the table
backend, and the tracker, so every layer records against the same
registry and trace.

The default is :data:`NULL_TELEMETRY`, a shared null object whose
methods are no-ops: the disabled path allocates nothing per access and
instrumented code only pays one attribute load and branch
(``if telemetry.enabled``) on its hot paths.

Snapshot-time **collectors** are the zero-hot-path-cost instrument:
components register a callable that copies their internal counters
(scheme stats, cache hit counts, RQA occupancy) into the registry, and
it runs only at epoch boundaries and final collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.telemetry.events import DEFAULT_CAPACITY, EventTracer
from repro.telemetry.metrics import MetricsRegistry


@dataclass
class EpochSnapshot:
    """Metric deltas accumulated over one 64 ms epoch."""

    epoch: int
    ts_ns: float
    deltas: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "ts_ns": self.ts_ns,
            "deltas": dict(self.deltas),
        }

    @staticmethod
    def from_dict(data: dict) -> "EpochSnapshot":
        return EpochSnapshot(
            epoch=int(data["epoch"]),
            ts_ns=float(data["ts_ns"]),
            deltas={k: float(v) for k, v in data.get("deltas", {}).items()},
        )


class NullTelemetry:
    """Shared do-nothing telemetry: the allocation-free disabled path."""

    __slots__ = ()

    enabled = False
    registry = None
    tracer = None
    timeline: tuple = ()

    def event(self, kind: str, ts_ns: float, **attrs) -> bool:
        return False

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def add_collector(self, fn: Callable) -> None:
        pass

    def collect(self) -> None:
        pass

    def epoch_snapshot(self, epoch: int, ts_ns: float, **attrs) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()
"""The singleton every un-instrumented component shares."""


class Telemetry:
    """Live telemetry: metrics registry + event tracer + epoch timeline."""

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample_rate: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else EventTracer(capacity=capacity, sample_rate=sample_rate)
        )
        self.timeline: List[EpochSnapshot] = []
        self._collectors: List[Callable[["Telemetry"], None]] = []
        self._epoch_base: Dict[str, float] = {}

    # ------------------------------------------------------------ recording

    def event(self, kind: str, ts_ns: float, **attrs) -> bool:
        """Record one structured event at simulated time ``ts_ns``."""
        return self.tracer.emit(kind, ts_ns, **attrs)

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        self.registry.counter(name).inc(amount, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.registry.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.histogram(name).observe(value, **labels)

    # ----------------------------------------------------------- collection

    def add_collector(self, fn: Callable[["Telemetry"], None]) -> None:
        """Register a snapshot-time stats exporter (idempotent)."""
        if fn not in self._collectors:
            self._collectors.append(fn)

    def collect(self) -> None:
        """Run every collector (refreshing collector-fed series)."""
        for fn in self._collectors:
            fn(self)

    def epoch_snapshot(
        self, epoch: int, ts_ns: float, **attrs
    ) -> EpochSnapshot:
        """Close out one epoch: collect, diff the registry, record.

        Emits a ``refresh_window`` boundary event carrying ``attrs``
        (e.g. the RQA occupancy at the boundary) and appends an
        :class:`EpochSnapshot` of every series' delta since the last
        boundary to :attr:`timeline`.
        """
        self.collect()
        snapshot = self.registry.snapshot()
        deltas = {}
        for key, value in snapshot.items():
            delta = value - self._epoch_base.get(key, 0.0)
            if delta != 0.0:
                deltas[key] = delta
        self._epoch_base = snapshot
        entry = EpochSnapshot(epoch=epoch, ts_ns=ts_ns, deltas=deltas)
        self.timeline.append(entry)
        self.event("refresh_window", ts_ns, epoch=epoch, **attrs)
        return entry

    # ---------------------------------------------------------------- reset

    def reset(self) -> None:
        """Clear metrics, events, timeline, and epoch baselines."""
        self.registry.reset()
        self.tracer.clear()
        self.timeline.clear()
        self._epoch_base.clear()
