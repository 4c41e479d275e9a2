"""Metrics registry: counters, gauges, histograms, snapshot/reset."""

import math

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    series_name,
)


class TestSeriesNaming:
    def test_unlabeled_series_is_bare_name(self):
        assert series_name("migrations_total", label_key({})) == (
            "migrations_total"
        )

    def test_labels_sorted_and_stringified(self):
        key = label_key({"scheme": "aqua", "reason": 7})
        assert series_name("migrations_total", key) == (
            "migrations_total{reason=7,scheme=aqua}"
        )

    def test_label_order_is_canonical(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("migrations_total")
        counter.inc(scheme="aqua")
        counter.inc(2.0, scheme="aqua")
        counter.inc(scheme="rrs")
        assert counter.value(scheme="aqua") == 3.0
        assert counter.value(scheme="rrs") == 1.0
        assert counter.value(scheme="unseen") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_set_total_overwrites_for_collectors(self):
        counter = Counter("scheme_accesses_total")
        counter.set_total(10.0, scheme="aqua")
        counter.set_total(25.0, scheme="aqua")
        assert counter.value(scheme="aqua") == 25.0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("rqa_occupancy")
        gauge.set(100.0)
        gauge.add(-25.0)
        assert gauge.value() == 75.0


class TestHistogram:
    def test_count_sum_mean(self):
        hist = Histogram("fpt_lookup_ns")
        for value in (1.0, 2.0, 300.0):
            hist.observe(value, scheme="aqua")
        assert hist.count(scheme="aqua") == 3
        assert hist.sum(scheme="aqua") == 303.0
        assert hist.mean(scheme="aqua") == pytest.approx(101.0)
        assert math.isnan(hist.mean(scheme="other"))

    def test_series_emits_cumulative_buckets(self):
        hist = Histogram("lat", buckets=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(5_000.0)  # beyond the last bound -> +Inf
        series = hist.series()
        assert series["lat_bucket{le=10}"] == 1.0
        assert series["lat_bucket{le=100}"] == 2.0
        assert series["lat_bucket{le=+Inf}"] == 3.0
        assert series["lat_count"] == 3.0
        assert series["lat_sum"] == 5_055.0

    def test_observe_many_is_observe_in_order(self):
        """Same buckets, count and float sum, bit for bit, as one
        ``observe`` per value; ``value * count`` would round the sum
        differently."""
        # Cold bloom-filtered lookups around two DRAM lookups.
        dram = 46.099999999999994
        values = ([0.5] * 1000 + [dram]) * 2
        one_by_one = Histogram("fpt_lookup_ns")
        for value in values:
            one_by_one.observe(value, scheme="aqua")
        bulk = Histogram("fpt_lookup_ns")
        bulk.observe(3.25, scheme="aqua")
        bulk.observe_many([], scheme="aqua")
        bulk.reset()
        bulk.observe_many(values[:500], scheme="aqua")
        bulk.observe_many(values[500:], scheme="aqua")
        assert {k: v.hex() for k, v in bulk.series().items()} == {
            k: v.hex() for k, v in one_by_one.series().items()
        }
        multiplied = (dram + dram) + 0.5 * 2000
        assert bulk.sum(scheme="aqua") != multiplied

    def test_observe_many_of_nothing_creates_no_series(self):
        hist = Histogram("lat")
        hist.observe_many([], scheme="aqua")
        assert hist.series() == {}

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_flattens_every_series(self):
        registry = MetricsRegistry()
        registry.counter("migrations_total").inc(scheme="aqua")
        registry.gauge("occupancy").set(42.0)
        snapshot = registry.snapshot()
        assert snapshot["migrations_total{scheme=aqua}"] == 1.0
        assert snapshot["occupancy"] == 42.0

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("migrations_total").inc()
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.counter("migrations_total").value() == 0.0

    def test_render_table_hides_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(5.0)
        table = registry.render_table()
        assert "_bucket{" not in table
        assert "lat_count" in table

    def test_render_table_empty(self):
        assert "no metrics" in MetricsRegistry().render_table()
