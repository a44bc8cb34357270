"""Tests for the back-end fragment cache baseline: a BEM with its DPC inside
the site (``ApplicationServer(bem=..., origin_dpc=...)``)."""

import pytest

from repro.appserver import ApplicationServer, HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.template import SENTINEL
from repro.errors import ConfigurationError
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites.synthetic import (
    SyntheticParams,
    build_server,
    build_services,
    touch_fragment,
)


def backend_server(params, capacity=64):
    """A synthetic origin in backend mode; returns ``(server, bem)``."""
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=capacity, clock=clock)
    services = build_services(params)
    server = build_server(
        params, services=services, clock=clock, bem=bem,
        origin_dpc=DynamicProxyCache(capacity=capacity), cost_model=FREE,
    )
    bem.attach_database(services.db.bus)
    return server, bem


class TestMonitorProtocol:
    def test_hit_returns_inline_literal(self):
        """A warm page ships its fragments inline, without running them."""
        params = SyntheticParams(cacheability=1.0)
        server, bem = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        server.handle(request)
        generated_cold = bem.stats.bytes_generated
        warm = server.handle(request)
        assert warm.meta["hits"] == params.fragments_per_page
        assert warm.meta["generated_bytes"] == 0  # computation saved
        assert bem.stats.bytes_generated == generated_cold
        assert SENTINEL not in warm.body  # inline bytes, not tags
        assert warm.body == server.render_reference_page(request)

    def test_non_cacheable_passthrough(self):
        """Non-cacheable blocks are routed around the BEM by the builder."""
        params = SyntheticParams(cacheability=0.0)
        server, bem = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        first = server.handle(request)
        second = server.handle(request)
        assert bem.stats.blocks_processed == 0
        assert second.meta["misses"] == second.meta["hits"] == 0
        assert first.body == second.body == server.render_reference_page(request)

    def test_flush(self):
        params = SyntheticParams(cacheability=1.0)
        server, bem = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        server.handle(request)
        assert bem.flush() == params.fragments_per_page
        assert bem.directory.valid_count() == 0
        refilled = server.handle(request)
        assert refilled.meta["misses"] == params.fragments_per_page
        assert refilled.body == server.render_reference_page(request)

    def test_explicit_invalidation(self):
        params = SyntheticParams(cacheability=1.0)
        server, bem = backend_server(params)
        server.handle(HttpRequest("/page.jsp", {"pageID": "0"}))
        pool_index = params.pool_indexes_for_page(0)[0]
        assert bem.invalidate_fragment("frag", {"id": pool_index})

    def test_origin_dpc_needs_a_bem(self):
        with pytest.raises(ConfigurationError):
            ApplicationServer(
                build_services(SyntheticParams()),
                origin_dpc=DynamicProxyCache(capacity=8),
            )

    def test_meta_reports_backend_mode_and_no_tags(self):
        params = SyntheticParams(cacheability=1.0)
        server, _ = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        for response in (server.handle(request), server.handle(request)):
            assert response.meta["mode"] == "backend"
            assert response.meta["get_count"] == 0
            assert response.meta["set_count"] == 0


class TestBandwidthContrast:
    def test_backend_saves_computation_not_bytes(self):
        """The §3.1 point: correct, compute-saving, zero byte savings."""
        params = SyntheticParams(cacheability=1.0)
        server, bem = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        cold = server.handle(request)
        warm = server.handle(request)
        assert bem.stats.fragment_hits == 4
        # Bytes identical cold vs warm: the full page always ships.
        assert warm.body_bytes == cold.body_bytes
        assert warm.body == cold.body

    def test_served_page_is_correct(self):
        params = SyntheticParams(cacheability=1.0)
        server, _ = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "1"})
        server.handle(request)
        warm = server.handle(request)
        assert warm.body == server.render_reference_page(request)

    def test_invalidation_keeps_backend_cache_fresh(self):
        params = SyntheticParams(cacheability=1.0)
        server, _ = backend_server(params)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        server.handle(request)
        touch_fragment(server.services, 0)
        warm = server.handle(request)
        assert warm.body == server.render_reference_page(request)
        assert "v00000001" in warm.body
