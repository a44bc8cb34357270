"""Tests for the application server against a miniature site."""

import pytest

from repro.appserver import ApplicationServer, DynamicScript, HttpRequest, SiteServices
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import Dependency
from repro.core.template import TemplateConfig
from repro.database import Database, schema
from repro.errors import ScriptError, ScriptNotFound
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import synthetic
from repro.sites.synthetic import SyntheticParams


class MiniScript(DynamicScript):
    path = "/mini.jsp"

    def run(self, ctx):
        item = ctx.request.param("item", "default")
        ctx.write("<html>")
        ctx.block(
            "body",
            {"item": item},
            lambda: "<p>%s:%s</p>"
            % (item, ctx.services.db.table("items").get(item)["v"]),
        )
        ctx.write("</html>")


class ExplodingScript(DynamicScript):
    path = "/boom.jsp"

    def run(self, ctx):
        raise ValueError("kaboom")


def make_services():
    db = Database()
    table = db.create_table(schema("items", [("k", "str"), ("v", "int")]))
    table.insert({"k": "default", "v": 1})
    table.insert({"k": "other", "v": 2})
    services = SiteServices(db=db)
    services.tags.tag(
        "body",
        dependencies=lambda params: (Dependency("items", key=params["item"]),),
    )
    return services


def make_server(bem=None, clock=None, **kwargs):
    services = make_services()
    server = ApplicationServer(services, clock=clock, bem=bem, cost_model=FREE, **kwargs)
    server.register(MiniScript())
    server.register(ExplodingScript())
    return server


class TestPlainMode:
    def test_serves_full_page(self):
        server = make_server()
        response = server.handle(HttpRequest("/mini.jsp"))
        assert response.body == "<html><p>default:1</p></html>"
        assert response.meta["mode"] == "plain"

    def test_unknown_path(self):
        server = make_server()
        with pytest.raises(ScriptNotFound):
            server.handle(HttpRequest("/nope.jsp"))

    def test_script_errors_wrapped(self):
        server = make_server()
        with pytest.raises(ScriptError, match="kaboom"):
            server.handle(HttpRequest("/boom.jsp"))

    def test_duplicate_registration_rejected(self):
        server = make_server()
        with pytest.raises(ScriptError):
            server.register(MiniScript())

    def test_requests_counted(self):
        server = make_server()
        server.handle(HttpRequest("/mini.jsp"))
        server.handle(HttpRequest("/mini.jsp"))
        assert server.requests_served == 2


class TestDpcMode:
    def test_first_response_sets_then_gets(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        server = make_server(bem=bem, clock=clock)
        first = server.handle(HttpRequest("/mini.jsp"))
        second = server.handle(HttpRequest("/mini.jsp"))
        assert first.meta["set_count"] == 1
        assert second.meta["get_count"] == 1
        assert second.body_bytes < first.body_bytes

    def test_dpc_assembles_identical_page(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        server = make_server(bem=bem, clock=clock)
        dpc = DynamicProxyCache(capacity=8)
        oracle = server.render_reference_page(HttpRequest("/mini.jsp"))
        for _ in range(3):
            response = server.handle(HttpRequest("/mini.jsp"))
            assert dpc.process_response(response.body).html == oracle

    def test_update_regenerates_through_dependency(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        server = make_server(bem=bem, clock=clock)
        bem.attach_database(server.services.db.bus)
        dpc = DynamicProxyCache(capacity=8)

        dpc.process_response(server.handle(HttpRequest("/mini.jsp")).body)
        server.services.db.table("items").update({"v": 42}, key="default")
        page = dpc.process_response(server.handle(HttpRequest("/mini.jsp")).body)
        assert "default:42" in page.html

    def test_clock_mismatch_rejected(self):
        bem = BackEndMonitor(capacity=8)  # its own clock
        with pytest.raises(ScriptError):
            make_server(bem=bem, clock=SimulatedClock())

    def test_mode_meta(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        server = make_server(bem=bem, clock=clock)
        assert server.handle(HttpRequest("/mini.jsp")).meta["mode"] == "dpc"

    def test_template_framing_comes_from_the_bem(self):
        # The server has no framing of its own: a width-6 BEM writes
        # width-6 dpcKeys, which the matching width-6 DPC must parse.
        config = TemplateConfig(key_width=6)
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=64, clock=clock, template_config=config)
        server = synthetic.build_server(
            params=SyntheticParams(num_pages=2, fragments_per_page=4),
            clock=clock, bem=bem, cost_model=FREE,
        )
        dpc = DynamicProxyCache(capacity=64, template_config=config)
        request = HttpRequest("/page.jsp", {"pageID": "1"})
        oracle = server.render_reference_page(request)
        cold = server.handle(request)
        warm = server.handle(request)
        assert cold.meta["set_count"] > 0
        assert warm.meta["get_count"] == cold.meta["set_count"]
        assert dpc.process_response(cold.body).html == oracle
        assert dpc.process_response(warm.body).html == oracle


class TestGenerationCost:
    def test_generation_time_recorded_and_clock_advanced(self):
        from repro.network.latency import GenerationCostModel

        clock = SimulatedClock()
        services = make_services()
        server = ApplicationServer(
            services, clock=clock, cost_model=GenerationCostModel()
        )
        server.register(MiniScript())
        response = server.handle(HttpRequest("/mini.jsp"))
        assert response.meta["generation_s"] > 0
        assert clock.now() == pytest.approx(response.meta["generation_s"])

    def test_hit_is_cheaper_than_miss(self):
        from repro.network.latency import GenerationCostModel

        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        services = make_services()
        server = ApplicationServer(
            services, clock=clock, bem=bem, cost_model=GenerationCostModel()
        )
        server.register(MiniScript())
        miss = server.handle(HttpRequest("/mini.jsp")).meta["generation_s"]
        hit = server.handle(HttpRequest("/mini.jsp")).meta["generation_s"]
        assert hit < miss


class TestReferenceOracle:
    def test_oracle_does_not_touch_counters(self):
        server = make_server()
        server.render_reference_page(HttpRequest("/mini.jsp"))
        assert server.requests_served == 0

    def test_oracle_creates_no_session(self):
        server = make_server()
        server.handle(HttpRequest("/mini.jsp"))
        assert server.sessions.created == 1
        for _ in range(2):
            server.render_reference_page(HttpRequest("/mini.jsp"))
        assert server.sessions.created == 1
        assert server.sessions.active_count() == 1

    def test_oracle_matches_plain_serving(self):
        server = make_server()
        oracle = server.render_reference_page(HttpRequest("/mini.jsp"))
        served = server.handle(HttpRequest("/mini.jsp")).body
        assert oracle == served
