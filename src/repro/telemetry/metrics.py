"""Metrics registry: counters, gauges, and histograms with labels.

The registry is the *pull* side of the telemetry substrate: schemes and
simulators either increment metrics inline (cheap, on cold paths) or
register collectors that copy their internal statistics into the
registry at snapshot time (free on the hot path).  ``snapshot()``
flattens every series into a ``{series_name: value}`` dict, which is
what the per-epoch timeline diffs (Prometheus-style exposition, scoped
to one simulated run).

Series names follow the ``name{label=value,...}`` convention, e.g.::

    migrations_total{reason=demand,scheme=aqua}
    fpt_lookup_ns_bucket{le=25,scheme=aqua}
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_name(name: str, key: LabelKey) -> str:
    """Render ``name{k=v,...}`` (bare ``name`` when unlabeled)."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Metric:
    """Base class: a named family of labeled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def series(self) -> Dict[str, float]:
        """Flattened ``{series_name: value}`` for every label set."""
        return {
            series_name(self.name, key): value
            for key, value in self._values.items()
        }

    def reset(self) -> None:
        self._values.clear()


class Counter(Metric):
    """Monotone counter; ``set_total`` supports snapshot-time collectors."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Overwrite the running total (for collectors mirroring an
        externally maintained monotone count)."""
        self._values[label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        return self._values.get(label_key(labels), 0.0)


class Gauge(Metric):
    """Point-in-time value (occupancy, configured cost, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[label_key(labels)] = float(value)

    def add(self, amount: float, **labels) -> None:
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(label_key(labels), 0.0)


#: Default histogram bucket upper bounds, tuned for nanosecond-scale
#: latencies (lookups are ~1 ns SRAM to ~100 ns DRAM; migrations ~1 us).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


class Histogram(Metric):
    """Fixed-bucket histogram with per-label-set count/sum/buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = (
            DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # key -> [bucket counts..., +Inf count], plus count/sum scalars.
        self._hist: Dict[LabelKey, List[float]] = {}
        self._count: Dict[LabelKey, int] = {}
        self._sum: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values: Sequence[float], **labels) -> None:
        """Observe ``values`` in order, computing the label key once.

        The buckets, count and sum end exactly as after one
        :meth:`observe` per value: the sum takes the same float
        additions in the same order (not ``value * count``, which
        rounds differently).  An empty sequence creates no series.
        """
        if not values:
            return
        key = label_key(labels)
        counts = self._hist.get(key)
        if counts is None:
            counts = [0.0] * (len(self.bounds) + 1)
            self._hist[key] = counts
        bounds = self.bounds
        total = self._sum.get(key, 0.0)
        for value in values:
            for i, bound in enumerate(bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            total += value
        self._count[key] = self._count.get(key, 0) + len(values)
        self._sum[key] = total

    def count(self, **labels) -> int:
        return self._count.get(label_key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sum.get(label_key(labels), 0.0)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else math.nan

    def series(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, counts in self._hist.items():
            cumulative = 0.0
            for bound, bucket in zip(self.bounds, counts):
                cumulative += bucket
                bkey = key + (("le", f"{bound:g}"),)
                out[series_name(self.name + "_bucket", tuple(sorted(bkey)))] = (
                    cumulative
                )
            ikey = key + (("le", "+Inf"),)
            out[series_name(self.name + "_bucket", tuple(sorted(ikey)))] = (
                cumulative + counts[-1]
            )
            out[series_name(self.name + "_count", key)] = float(
                self._count[key]
            )
            out[series_name(self.name + "_sum", key)] = self._sum[key]
        return out

    def reset(self) -> None:
        self._hist.clear()
        self._count.clear()
        self._sum.clear()


def render_series_table(
    series: Dict[str, float], hide_buckets: bool = True
) -> str:
    """Render a flat ``{series_name: value}`` snapshot as an aligned table.

    Shared by :meth:`MetricsRegistry.render_table` and the parallel
    sweep path, where worker registries arrive as flat snapshots rather
    than live objects (see :meth:`MetricsRegistry.merge_flat`).
    """
    rows = sorted(series.items())
    if hide_buckets:
        rows = [(k, v) for k, v in rows if "_bucket{" not in k]
    if not rows:
        return "  (no metrics recorded)"
    width = max(len(k) for k, _ in rows)
    lines = []
    for key, value in rows:
        rendered = f"{value:g}" if value == int(value) else f"{value:.3f}"
        lines.append(f"  {key:<{width}}  {rendered}")
    return "\n".join(lines)


class MetricsRegistry:
    """Names metrics and produces flat snapshots of every series.

    Cross-process merging: worker processes cannot share live metric
    objects with the parent, so they ship ``snapshot()`` dicts back and
    the parent folds them in with :meth:`merge_flat`.  Merged series
    accumulate additively (the right semantics for counters and
    histogram buckets; gauges merged this way become sums, which the
    parallel runner documents) and appear in :meth:`snapshot` /
    :meth:`render_table` alongside locally registered series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._external: Dict[str, float] = {}

    def _get(self, name: str, cls, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get(name, Histogram, help, buckets=buckets)

    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def merge_flat(self, series: Dict[str, float]) -> None:
        """Fold one worker's flat snapshot into this registry.

        Values add into a side table keyed by full series name (the
        worker's label sets are already baked into the names), so
        merging N worker snapshots yields the same totals as one
        process recording everything -- for monotone series.  Merge in
        a deterministic order (run-key order, not completion order)
        when byte-stable output matters: float addition is not
        associative.
        """
        for key, value in series.items():
            self._external[key] = self._external.get(key, 0.0) + float(value)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series_name: value}`` across every registered metric."""
        out: Dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(metric.series())
        for key, value in self._external.items():
            out[key] = out.get(key, 0.0) + value
        return out

    def reset(self) -> None:
        """Zero every series (registrations are kept)."""
        for metric in self._metrics.values():
            metric.reset()
        self._external.clear()

    def render_table(self, hide_buckets: bool = True) -> str:
        """Human-readable metrics table for the CLI ``--metrics`` flag."""
        return render_series_table(self.snapshot(), hide_buckets=hide_buckets)
