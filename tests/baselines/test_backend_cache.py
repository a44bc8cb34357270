"""Tests for the back-end fragment cache baseline."""

import pytest

from repro.appserver import ApplicationServer, HttpRequest
from repro.baselines.backend_cache import BackendFragmentCache
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.tagging import PageBuilder, TagRegistry
from repro.core.template import Literal
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites.synthetic import SyntheticParams, build_server, build_services


def fid(name, **params):
    return FragmentID.create(name, params or None)


class TestMonitorProtocol:
    def test_hit_returns_inline_literal(self):
        cache = BackendFragmentCache(capacity=8)
        cache.process_block(fid("f"), FragmentMetadata, lambda: "content")
        calls = []
        instruction = cache.process_block(
            fid("f"), FragmentMetadata, lambda: calls.append(1) or "regen"
        )
        assert instruction == Literal("content")  # inline bytes, not a tag
        assert calls == []  # computation still saved
        assert cache.stats.hits == 1

    def test_non_cacheable_passthrough(self):
        """Non-cacheable blocks are routed around the cache by the builder."""
        cache = BackendFragmentCache(capacity=8)
        registry = TagRegistry()
        registry.tag("x", cacheable=False)
        pages = []
        for body in ("a", "b"):
            builder = PageBuilder(registry, bem=cache)
            builder.block("x", {}, lambda body=body: body)
            pages.append(builder.full_page())
        assert pages == ["a", "b"]
        assert cache.stats.blocks_processed == 0

    def test_flush(self):
        cache = BackendFragmentCache(capacity=8)
        cache.process_block(fid("f"), FragmentMetadata, lambda: "x")
        assert cache.flush() == 1
        assert cache.directory.valid_count() == 0

    def test_explicit_invalidation(self):
        cache = BackendFragmentCache(capacity=8)
        cache.process_block(fid("f", u="bob"), FragmentMetadata, lambda: "x")
        assert cache.invalidate_fragment("f", {"u": "bob"})


class TestBandwidthContrast:
    def test_backend_saves_computation_not_bytes(self):
        """The §3.1 point: correct, compute-saving, zero byte savings."""
        params = SyntheticParams(cacheability=1.0)
        clock = SimulatedClock()
        cache = BackendFragmentCache(capacity=64, clock=clock)
        services = build_services(params)
        server = build_server(params, services=services, clock=clock,
                              bem=cache, cost_model=FREE)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        cold = server.handle(request)
        warm = server.handle(request)
        assert cache.stats.hits == 4
        # Bytes identical cold vs warm: the full page always ships.
        assert warm.body_bytes == cold.body_bytes
        assert warm.body == cold.body

    def test_served_page_is_correct(self):
        params = SyntheticParams(cacheability=1.0)
        clock = SimulatedClock()
        cache = BackendFragmentCache(capacity=64, clock=clock)
        services = build_services(params)
        server = build_server(params, services=services, clock=clock,
                              bem=cache, cost_model=FREE)
        request = HttpRequest("/page.jsp", {"pageID": "1"})
        server.handle(request)
        warm = server.handle(request)
        assert warm.body == server.render_reference_page(request)

    def test_invalidation_keeps_backend_cache_fresh(self):
        from repro.sites.synthetic import touch_fragment

        params = SyntheticParams(cacheability=1.0)
        clock = SimulatedClock()
        cache = BackendFragmentCache(capacity=64, clock=clock)
        services = build_services(params)
        server = build_server(params, services=services, clock=clock,
                              bem=cache, cost_model=FREE)
        cache.attach_database(services.db.bus)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        server.handle(request)
        touch_fragment(services, 0)
        warm = server.handle(request)
        assert warm.body == server.render_reference_page(request)
        assert "v00000001" in warm.body
