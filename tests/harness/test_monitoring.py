"""Tests for the deployment snapshot."""

import pytest

from repro.appserver import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.harness.monitoring import DeploymentSnapshot, take_snapshot
from repro.network import Firewall, Sniffer, response_message
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import books


@pytest.fixture
def active_deployment():
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=256, clock=clock)
    server = books.build_server(clock=clock, bem=bem, cost_model=FREE)
    bem.attach_database(server.services.db.bus)
    dpc = DynamicProxyCache(capacity=256)
    for i in range(4):
        request = HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                              session_id="s%d" % i)
        dpc.process_response(server.handle(request).body)
    return bem, dpc


class TestSnapshot:
    def test_empty_components_give_empty_snapshot(self):
        assert take_snapshot().rows == []

    def test_bem_metrics_present(self, active_deployment):
        bem, dpc = active_deployment
        snapshot = take_snapshot(bem=bem)
        assert snapshot.get("bem.fragment_hits") > 0
        assert 0 < snapshot.get("bem.hit_ratio") <= 1
        assert snapshot.get("directory.capacity") == 256
        assert snapshot.get("directory.valid_entries") > 0

    def test_dpc_metrics_present(self, active_deployment):
        bem, dpc = active_deployment
        snapshot = take_snapshot(dpc=dpc)
        assert snapshot.get("dpc.responses_processed") == 4
        assert snapshot.get("dpc.bytes_saved") > 0
        assert snapshot.get("dpc.slots_occupied") > 0

    def test_firewall_and_sniffer_sections(self):
        firewall = Firewall()
        firewall.scan_bytes(500)
        sniffer = Sniffer()
        sniffer.observe(response_message(1000))
        snapshot = take_snapshot(firewall=firewall, sniffer=sniffer)
        assert snapshot.get("firewall.bytes_scanned") == 500
        assert snapshot.get("link.response_payload_bytes") == 1000

    def test_render_is_a_table(self, active_deployment):
        bem, dpc = active_deployment
        text = take_snapshot(bem=bem, dpc=dpc).render()
        assert "metric" in text
        assert "bem.hit_ratio" in text
        assert "dpc.bytes_saved" in text

    def test_names_and_missing_lookup(self):
        snapshot = DeploymentSnapshot()
        snapshot.registry.register_provider(lambda: [("demo.a", 1)])
        assert snapshot.names() == ["demo.a"]
        with pytest.raises(KeyError):
            snapshot.get("zzz")

    def test_utilization_bounded(self, active_deployment):
        bem, dpc = active_deployment
        snapshot = take_snapshot(bem=bem)
        assert 0.0 <= snapshot.get("directory.utilization") <= 1.0


class TestRemovedShim:
    """The deprecation cycle is over: the legacy surface is gone."""

    def test_add_is_gone(self):
        snapshot = DeploymentSnapshot()
        assert not hasattr(snapshot, "add")

    def test_renamed_metric_no_longer_resolves(self, active_deployment):
        bem, dpc = active_deployment
        snapshot = take_snapshot(bem=bem)
        assert snapshot.get("bem.objects.memoized") >= 0
        with pytest.raises(KeyError):
            snapshot.get("objects.memoized")

    def test_snapshot_is_a_view_over_a_registry(self, active_deployment):
        from repro.telemetry import MetricsRegistry

        bem, dpc = active_deployment
        registry = MetricsRegistry()
        snapshot = take_snapshot(bem=bem, registry=registry)
        assert snapshot.registry is registry
        assert snapshot.rows == registry.collect()

    def test_snapshot_rows_are_live(self, active_deployment):
        bem, dpc = active_deployment
        snapshot = take_snapshot(bem=bem)
        before = snapshot.get("bem.fragment_hits")
        bem.stats.fragment_hits += 5
        assert snapshot.get("bem.fragment_hits") == before + 5


class TestNewSections:
    def test_database_rows_surface(self):
        from repro.database import Database, schema

        db = Database()
        table = db.create_table(schema("t", [("k", "int")]))
        table.insert({"k": 1})
        table.get(1)
        snapshot = take_snapshot(db=db)
        db_rows = [name for name in snapshot.names() if name.startswith("db.")]
        assert db_rows == ["db.rows_read", "db.tables"]
        assert snapshot.get("db.rows_read") == 1
        assert snapshot.get("db.tables") == 1

    def test_breaker_rows_surface(self):
        from repro.overload import CircuitBreaker

        snapshot = take_snapshot(breaker=CircuitBreaker())
        assert snapshot.get("overload.breaker.opens") == 0
        assert snapshot.get("overload.breaker.refused") == 0

    def test_tracer_rows_surface(self):
        from repro.telemetry import Tracer

        clock = SimulatedClock()
        tracer = Tracer(clock, enabled=True)
        with tracer.span("request"), tracer.span("bem.process"):
            clock.advance(0.01)
        snapshot = take_snapshot(tracer=tracer)
        assert snapshot.get("trace.traces_completed") == 1
        assert snapshot.get("trace.spans_opened") == 2


class TestInsightSection:
    def test_insight_rows_surface(self):
        from repro.insight import InsightLayer

        insight = InsightLayer()
        insight.record_access("frag?id=1", hit=False)
        insight.record_access("frag?id=1", hit=True)
        snapshot = take_snapshot(insight=insight)
        assert snapshot.get("insight.miss.cold") == 1
        assert snapshot.get("insight.hits") == 1
        assert snapshot.get("insight.mattson.accesses") == 2

    def test_slo_rows_surface(self):
        from repro.insight import SloEngine, SloObjective

        engine = SloEngine([SloObjective(
            name="slo.demo", metric="demo.metric",
            comparator="<=", threshold=1.0, min_samples=1,
        )])
        engine.observe("demo.metric", 0.5, now=1.0)
        snapshot = take_snapshot(slo=engine)
        assert snapshot.get("slo.objectives") == 1
        assert snapshot.get("slo.samples") == 1
        assert snapshot.get("slo.alerts_fired") == 0


class TestOverloadSection:
    def test_drop_ledger_rows_surface(self):
        from repro.overload import DROP_REASONS, DropLedger

        ledger = DropLedger()
        ledger.record("queue_full", 4)
        ledger.record("policy_shed")
        snapshot = take_snapshot(overload=ledger)
        for reason in DROP_REASONS:
            assert snapshot.get("overload.drops.%s" % reason) >= 0
        assert snapshot.get("overload.drops.queue_full") == 4
        assert snapshot.get("overload.drops.total") == 5

    def test_channel_rows_surface(self):
        from repro.network import Channel

        channel = Channel("origin", endpoint_a="dpc", endpoint_b="appserver")
        channel.messages_sent = 12
        channel.messages_dropped = 2
        snapshot = take_snapshot(channel=channel)
        assert snapshot.get("channel.messages_sent") == 12
        assert snapshot.get("channel.messages_dropped") == 2
