"""MetricsRegistry: providers and deterministic collection."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry


class TestRegistry:
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

    def test_collection_follows_registration_order(self):
        registry = MetricsRegistry()
        registry.register_provider(lambda: [("zz.first", 0), ("aa.first", 1)])
        registry.register_provider(lambda: [("mm.second", 2)])
        assert registry.names() == ["zz.first", "aa.first", "mm.second"]

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
