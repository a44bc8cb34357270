"""Tests for the cache warmer."""

import pytest

from repro.appserver import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.errors import ConfigurationError
from repro.harness.warming import CacheWarmer
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import books
from repro.workload import PageSpec


@pytest.fixture
def stack():
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=512, clock=clock)
    server = books.build_server(clock=clock, bem=bem, cost_model=FREE)
    bem.attach_database(server.services.db.bus)
    dpc = DynamicProxyCache(capacity=512)
    return server, bem, dpc


CATALOG_PAGES = [
    PageSpec.create("/catalog.jsp", {"categoryID": c})
    for c in ("Fiction", "Science")
]


class TestWarming:
    def test_requires_cache_enabled_origin(self):
        server = books.build_server(cost_model=FREE)
        with pytest.raises(ConfigurationError):
            CacheWarmer(server, DynamicProxyCache(capacity=8))

    def test_rejects_origin_that_ships_full_pages(self):
        """A back-end origin assembles pages itself: nothing would load."""
        clock = SimulatedClock()
        server = books.build_server(
            clock=clock,
            bem=BackEndMonitor(capacity=64, clock=clock),
            origin_dpc=DynamicProxyCache(capacity=64),
            cost_model=FREE,
        )
        with pytest.raises(ConfigurationError):
            CacheWarmer(server, DynamicProxyCache(capacity=64))

    def test_warming_loads_fragments(self, stack):
        server, bem, dpc = stack
        report = CacheWarmer(server, dpc).warm_pages(CATALOG_PAGES)
        assert report.was_effective
        assert report.fragments_loaded > 0
        assert report.slots_occupied == report.fragments_loaded
        assert report.requests_replayed == 2

    def test_second_pass_is_all_warm(self, stack):
        server, bem, dpc = stack
        warmer = CacheWarmer(server, dpc)
        warmer.warm_pages(CATALOG_PAGES)
        second = warmer.warm_pages(CATALOG_PAGES)
        assert second.fragments_loaded == 0
        assert second.fragments_already_warm > 0
        assert not second.was_effective

    def test_first_live_user_after_warming_is_cheap(self, stack):
        server, bem, dpc = stack
        CacheWarmer(server, dpc).warm_pages(CATALOG_PAGES)
        response = server.handle(
            HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                        session_id="live-user")
        )
        assert response.meta["misses"] == 0
        page = dpc.process_response(response.body)
        assert page.fragments_get > 0

    def test_warming_registered_users_preloads_personal_fragments(self, stack):
        server, bem, dpc = stack
        warmer = CacheWarmer(server, dpc)
        warmer.warm_pages(CATALOG_PAGES, user_ids=[None, "user000"])
        response = server.handle(
            HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                        user_id="user000", session_id="s")
        )
        assert response.meta["misses"] == 0

    def test_warmed_pages_serve_correctly(self, stack):
        server, bem, dpc = stack
        CacheWarmer(server, dpc).warm_pages(CATALOG_PAGES)
        request = HttpRequest("/catalog.jsp", {"categoryID": "Science"},
                              session_id="x")
        page = dpc.process_response(server.handle(request).body)
        assert page.html == server.render_reference_page(request)
