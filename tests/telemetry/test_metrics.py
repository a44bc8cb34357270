"""MetricsRegistry: instruments, providers, and deterministic collection."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("dpc.fragments_set")
        counter.inc()
        counter.inc(4)
        assert counter.rows() == [("dpc.fragments_set", 5)]

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("dpc.fragments_set").inc(-1)

    def test_gauge_set_and_callback(self):
        gauge = Gauge("dpc.slots_occupied")
        gauge.set(7)
        assert gauge.value == 7
        backing = {"n": 0}
        gauge = Gauge("dpc.slots_occupied", fn=lambda: backing["n"])
        backing["n"] = 3
        assert gauge.rows() == [("dpc.slots_occupied", 3)]

    def test_gauge_set_clears_callback(self):
        gauge = Gauge("dpc.capacity", fn=lambda: 99)
        gauge.set(1)
        assert gauge.value == 1

    def test_histogram_buckets_one_observation_each(self):
        histogram = Histogram("db.latency_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(2.65)
        assert histogram.bucket_rows() == [[0.1, 2], [1.0, 1], ["inf", 1]]

    def test_histogram_rows_shape(self):
        histogram = Histogram("db.latency_s", buckets=(0.5,))
        histogram.observe(0.25)
        rows = dict(histogram.rows())
        assert rows["db.latency_s.count"] == 1
        assert rows["db.latency_s.sum"] == pytest.approx(0.25)
        assert rows["db.latency_s.buckets"] == [[0.5, 1], ["inf", 0]]

    def test_histogram_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram("db.latency_s", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("db.latency_s", buckets=(1.0, 0.5))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("bem.fragment_hits") is registry.counter(
            "bem.fragment_hits"
        )
        assert registry.gauge("dpc.capacity") is registry.gauge("dpc.capacity")
        assert registry.histogram("db.wait_s") is registry.histogram("db.wait_s")

    def test_type_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("bem.fragment_hits")
        with pytest.raises(ConfigurationError):
            registry.gauge("bem.fragment_hits")
        with pytest.raises(ConfigurationError):
            registry.histogram("bem.fragment_hits")
        registry.histogram("db.wait_s")
        with pytest.raises(ConfigurationError):
            registry.counter("db.wait_s")

    def test_names_are_validated(self):
        registry = MetricsRegistry()
        for bad in ("nodots", "Upper.case", "trailing.", ".leading", "a b.c"):
            with pytest.raises(ConfigurationError):
                registry.counter(bad)

    def test_provider_resolution(self):
        class WithMetricRows:
            def metric_rows(self):
                return [("a.one", 1)]

        registry = MetricsRegistry()
        registry.register_provider(WithMetricRows())
        registry.register_provider(lambda: [("c.three", 3)])
        assert registry.collect() == [("a.one", 1), ("c.three", 3)]

    def test_unusable_provider_is_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().register_provider(object())

    def test_collection_order_providers_instruments_adhoc(self):
        registry = MetricsRegistry()
        registry.record("zz.adhoc", 0)
        registry.counter("mm.counter").inc()
        registry.register_provider(lambda: [("aa.provider", 1)])
        assert registry.names() == ["aa.provider", "mm.counter", "zz.adhoc"]

    def test_record_skips_validation_and_keeps_duplicates(self):
        registry = MetricsRegistry()
        registry.record("legacy name with spaces", 1)
        registry.record("legacy name with spaces", 2)
        assert len(registry) == 2
        assert registry.get("legacy name with spaces") == 1

    def test_get_raises_on_missing(self):
        with pytest.raises(KeyError):
            MetricsRegistry().get("no.such")

    def test_providers_are_live(self):
        counts = {"n": 0}

        class Component:
            def metric_rows(self):
                return [("x.n", counts["n"])]

        registry = MetricsRegistry()
        registry.register_provider(Component())
        assert registry.get("x.n") == 0
        counts["n"] = 5
        assert registry.get("x.n") == 5
