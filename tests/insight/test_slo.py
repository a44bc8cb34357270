"""SLO engine: objective validation, burn rates, the alert latch."""

import pytest

from repro.errors import ConfigurationError
from repro.insight.slo import SloEngine, SloObjective


def availability(**overrides):
    spec = dict(
        name="slo.availability", metric="request.served",
        comparator=">=", threshold=1.0, compliance_target=0.9,
        long_window_s=10.0, short_window_s=2.0,
        burn_threshold=2.0, min_samples=5,
    )
    spec.update(overrides)
    return SloObjective(**spec)


class TestObjective:
    def test_budget_and_goodness(self):
        objective = availability()
        assert objective.budget == pytest.approx(0.1)
        assert objective.good(1.0) and not objective.good(0.0)
        latency = availability(name="slo.latency", metric="request.elapsed_s",
                               comparator="<=", threshold=0.5)
        assert latency.good(0.4) and not latency.good(0.6)

    @pytest.mark.parametrize("overrides,match", [
        (dict(comparator="=="), "comparator"),
        (dict(compliance_target=1.0), "compliance_target"),
        (dict(compliance_target=0.0), "compliance_target"),
        (dict(short_window_s=0.0), "windows"),
        (dict(long_window_s=1.0, short_window_s=5.0), "windows"),
        (dict(burn_threshold=0.0), "burn_threshold"),
        (dict(min_samples=0), "min_samples"),
        (dict(name="NotDotted"), "dotted"),
        (dict(metric="nodots"), "dotted"),
    ])
    def test_validation(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            availability(**overrides)

class TestEngine:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            SloEngine([availability(), availability()])

    def test_burn_rates_need_min_samples(self):
        engine = SloEngine([availability()])
        for step in range(4):
            engine.observe("request.served", 1.0, now=step * 0.1)
        assert engine.burn_rates("slo.availability", now=0.4) == (None, None)

    def test_burn_rate_value(self):
        engine = SloEngine([availability()])
        # 10 samples in both windows, 3 bad: burn = 0.3 / 0.1 = 3.
        for step in range(10):
            good = step >= 3
            engine.observe("request.served", 1.0 if good else 0.0,
                           now=9.0 + step * 0.1)
        long_burn, short_burn = engine.burn_rates(
            "slo.availability", now=9.9
        )
        assert long_burn == pytest.approx(3.0)
        assert short_burn == pytest.approx(3.0)

    def test_alert_fires_once_and_rearms_after_recovery(self):
        engine = SloEngine([availability()])
        now = 0.0
        for step in range(20):       # sustained violation: all bad
            now = step * 0.1
            engine.observe("request.served", 0.0, now=now)
        assert engine.active_alerts() == ["slo.availability"]
        assert len(engine.alerts) == 1          # latched, not one per sample
        alert = engine.alerts[0]
        assert alert.objective == "slo.availability"
        assert alert.burn_long >= 2.0 and alert.burn_short >= 2.0
        for step in range(200):      # long recovery: all good
            now += 0.1
            engine.observe("request.served", 1.0, now=now)
        assert engine.active_alerts() == []
        for step in range(20):       # second violation fires a second alert
            now += 0.1
            engine.observe("request.served", 0.0, now=now)
        assert len(engine.alerts) == 2

    def test_short_window_spike_alone_does_not_fire(self):
        engine = SloEngine([availability(min_samples=2)])
        # Lots of good history in the long window...
        for step in range(50):
            engine.observe("request.served", 1.0, now=step * 0.1)
        # ...then a brief burst of badness inside the short window only.
        engine.observe("request.served", 0.0, now=5.05)
        engine.observe("request.served", 0.0, now=5.1)
        assert engine.alerts == []

    def test_unknown_metric_samples_ignored(self):
        engine = SloEngine([availability()])
        engine.observe("unrelated.metric", 0.0, now=1.0)
        assert engine.compliance("slo.availability") == 1.0

    def test_compliance_tracks_lifetime_fraction(self):
        engine = SloEngine([availability()])
        for step in range(8):
            engine.observe("request.served", 1.0 if step < 6 else 0.0,
                           now=step * 0.1)
        assert engine.compliance("slo.availability") == pytest.approx(0.75)

    def test_metric_rows_are_canonical(self):
        from repro.telemetry.naming import METRIC_NAMES

        engine = SloEngine([availability()])
        for name, _ in engine.metric_rows():
            assert name in METRIC_NAMES, name

