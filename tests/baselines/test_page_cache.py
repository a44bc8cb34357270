"""Tests for the page-level proxy cache baseline — including its flaws."""

import pytest

from repro.appserver import HttpRequest, HttpResponse
from repro.baselines.page_cache import PageLevelCache
from repro.errors import ConfigurationError
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import books


@pytest.fixture
def cache(clock):
    return PageLevelCache(clock, capacity=4, ttl_s=60.0)


def static_origin(body="page"):
    def origin(request):
        return HttpResponse(body=body)

    return origin


class TestMechanics:
    def test_miss_then_hit(self, cache):
        request = HttpRequest("/x")
        _, from_cache = cache.serve(request, static_origin())
        assert not from_cache
        _, from_cache = cache.serve(request, static_origin())
        assert from_cache
        assert cache.stats.hit_ratio == 0.5

    def test_ttl_expiry(self, cache, clock):
        request = HttpRequest("/x")
        cache.serve(request, static_origin())
        clock.advance(61.0)
        _, from_cache = cache.serve(request, static_origin())
        assert not from_cache
        assert cache.stats.expirations == 1

    def test_lru_eviction(self, cache):
        for i in range(5):
            cache.serve(HttpRequest("/p%d" % i), static_origin())
        assert len(cache) == 4
        assert cache.stats.evictions == 1
        # /p0 was evicted; /p4 still cached.
        _, hit = cache.serve(HttpRequest("/p0"), static_origin())
        assert not hit
        _, hit = cache.serve(HttpRequest("/p4"), static_origin())
        assert hit

    def test_origin_bytes_only_on_miss(self, cache):
        request = HttpRequest("/x")
        cache.serve(request, static_origin("abc"))
        cache.serve(request, static_origin("abc"))
        assert cache.stats.origin_bytes == 503  # one miss: 3 + 500 header
        assert cache.stats.served_bytes == 1006

    def test_invalidate_url(self, cache):
        cache.serve(HttpRequest("/x"), static_origin())
        assert cache.invalidate_url("/x")
        assert not cache.invalidate_url("/x")

    def test_invalidate_all(self, cache):
        cache.serve(HttpRequest("/a"), static_origin())
        cache.serve(HttpRequest("/b"), static_origin())
        assert cache.invalidate_all() == 2
        assert len(cache) == 0

    def test_params_cannot_smuggle_another_pages_url(self, cache):
        """A value holding ``&`` and ``=`` must not alias two params."""
        def echo_origin(request):
            return HttpResponse(body=repr(sorted(request.params.items())))

        honest = HttpRequest("/p", {"a": "1", "b": "2"})
        smuggled = HttpRequest("/p", {"a": "1&b=2"})
        cache.serve(honest, echo_origin)
        response, from_cache = cache.serve(smuggled, echo_origin)
        assert not from_cache
        assert response.body == repr([("a", "1&b=2")])

    def test_invalid_config(self, clock):
        with pytest.raises(ConfigurationError):
            PageLevelCache(clock, capacity=0)
        with pytest.raises(ConfigurationError):
            PageLevelCache(clock, ttl_s=0)


class TestPaperFlaws:
    def test_bob_then_alice_gets_bobs_page(self):
        """§3.2.1's central correctness failure, reproduced exactly."""
        clock = SimulatedClock()
        server = books.build_server(clock=clock, cost_model=FREE)
        cache = PageLevelCache(clock, ttl_s=300.0)

        bob = HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                          user_id="user000", session_id="bob")
        alice = HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                            session_id="alice")

        cache.serve(bob, server.handle)            # Bob populates the cache
        served, from_cache = cache.serve(alice, server.handle)
        assert from_cache
        assert "Hello, User 000" in served.body    # Alice sees Bob's greeting!
        oracle = server.render_reference_page(alice)
        assert served.body != oracle               # wrong page served

    def test_personalization_destroys_reuse(self):
        """Per-user uniqueness -> low hit ratio when identity varies."""
        clock = SimulatedClock()
        server = books.build_server(clock=clock, cost_model=FREE)
        correct_cache = {}

        # With correct behaviour (cache key would need user identity),
        # 10 users x same URL = 10 distinct pages: zero reuse available
        # for the URL-keyed cache to exploit *safely*.
        pages = set()
        for i in range(10):
            request = HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                                  user_id="user%03d" % i, session_id="s%d" % i)
            pages.add(server.handle(request).body)
        assert len(pages) == 10
