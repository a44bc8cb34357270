"""Tests for the synthetic Table 2 application."""

import math

import pytest

from repro.appserver import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.fragments import FragmentID
from repro.errors import ConfigurationError
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites.synthetic import (
    _FILLER,
    SYNTHETIC_TABLE,
    SyntheticPageScript,
    SyntheticParams,
    build_server,
    build_services,
    fragment_content,
    touch_fragment,
)


class TestSyntheticParams:
    def test_default_pool_is_pages_times_fragments(self):
        assert SyntheticParams().effective_pool_size == 40

    def test_page_composition(self):
        params = SyntheticParams()
        assert params.pool_indexes_for_page(0) == [0, 1, 2, 3]
        assert params.pool_indexes_for_page(9) == [36, 37, 38, 39]

    def test_shared_pool_wraps(self):
        params = SyntheticParams(pool_size=6)
        assert params.pool_indexes_for_page(1) == [4, 5, 0, 1]

    def test_page_out_of_range(self):
        with pytest.raises(ConfigurationError):
            SyntheticParams().pool_indexes_for_page(10)

    def test_cacheable_count_matches_factor(self):
        params = SyntheticParams(cacheability=0.6)
        assert params.cacheable_count() == 24  # floor(40 * 0.6)

    def test_cacheability_extremes(self):
        assert SyntheticParams(cacheability=1.0).cacheable_count() == 40
        assert SyntheticParams(cacheability=0.0).cacheable_count() == 0

    def test_cacheable_pattern_is_spread(self):
        params = SyntheticParams(cacheability=0.5)
        flags = [params.is_cacheable(k) for k in range(8)]
        assert flags.count(True) == 4
        assert flags != [True] * 4 + [False] * 4  # interleaved, not blocked

    @pytest.mark.parametrize(
        "params",
        [
            SyntheticParams(cacheability=0.0),
            SyntheticParams(cacheability=0.6),
            SyntheticParams(cacheability=0.8),
            SyntheticParams(cacheability=1.0),
            SyntheticParams(num_pages=7, fragments_per_page=5, cacheability=0.6, pool_size=9),
            SyntheticParams(num_pages=400, fragments_per_page=8, cacheability=0.8),
            SyntheticParams(num_pages=20, fragments_per_page=16, cacheability=0.8),
            SyntheticParams(num_pages=3, fragments_per_page=4, cacheability=0.35, pool_size=5),
        ],
    )
    def test_cacheability_table_matches_the_floor_formula(self, params):
        c = params.cacheability
        for k in range(-3, params.effective_pool_size + 3):
            expected = math.floor((k + 1) * c) - math.floor(k * c) == 1
            assert params.is_cacheable(k) is expected

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            SyntheticParams(num_pages=0)
        with pytest.raises(ConfigurationError):
            SyntheticParams(cacheability=1.5)


class TestFragmentContent:
    def test_exact_size(self):
        for size in (1, 10, 16, 100, 1024, 5000):
            assert len(fragment_content(3, 7, size)) == size

    def test_version_changes_content(self):
        assert fragment_content(1, 0, 100) != fragment_content(1, 1, 100)

    def test_no_sentinel_in_content(self):
        assert "<~" not in fragment_content(5, 123, 5000)

    @pytest.mark.parametrize("version", [0, 7, 123456789])
    def test_matches_the_unmemoized_construction(self, version):
        def unmemoized(pool_index, version, size):
            prefix = "F%05d v%08d " % (pool_index, version)
            if size <= len(prefix):
                return prefix[:size]
            padding_needed = size - len(prefix)
            repeats = padding_needed // len(_FILLER) + 1
            return prefix + (_FILLER * repeats)[:padding_needed]

        for size in list(range(201)) + [4096]:
            for pool_index in (3, 123456):
                assert fragment_content(pool_index, version, size) == unmemoized(
                    pool_index, version, size
                )

    def test_ascii_sizes_are_byte_sizes(self):
        content = fragment_content(1, 2, 2048)
        assert len(content.encode("utf-8")) == 2048


class TestSyntheticServing:
    def test_page_body_is_exact_fragment_sum(self):
        params = SyntheticParams(fragment_size=256)
        server = build_server(params, cost_model=FREE)
        response = server.handle(HttpRequest("/page.jsp", {"pageID": "2"}))
        assert response.body_bytes == 4 * 256

    def test_cacheable_and_noncacheable_split(self):
        params = SyntheticParams(cacheability=0.5)
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=64, clock=clock)
        server = build_server(params, clock=clock, bem=bem, cost_model=FREE)
        response = server.handle(HttpRequest("/page.jsp", {"pageID": "0"}))
        assert response.meta["set_count"] == 2  # half the page is cacheable

    def test_touch_fragment_bumps_version(self):
        params = SyntheticParams()
        services = build_services(params)
        touch_fragment(services, 5)
        assert services.db.table("synthetic_data").get(5)["version"] == 1

    def test_touch_unknown_fragment(self):
        services = build_services(SyntheticParams())
        with pytest.raises(ConfigurationError):
            touch_fragment(services, 999)

    def test_touch_invalidates_through_trigger(self):
        params = SyntheticParams(cacheability=1.0)
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=64, clock=clock)
        services = build_services(params)
        server = build_server(params, services=services, clock=clock, bem=bem,
                              cost_model=FREE)
        bem.attach_database(services.db.bus)
        request = HttpRequest("/page.jsp", {"pageID": "0"})
        server.handle(request)
        server.handle(request)
        assert bem.stats.fragment_hits == 4  # warm

        touch_fragment(services, 0)
        response = server.handle(request)
        assert response.meta["misses"] == 1
        assert response.meta["hits"] == 3


def page_script(params):
    """The page script over a fresh synthetic table."""
    return SyntheticPageScript(
        params, build_services(params).db.table(SYNTHETIC_TABLE)
    )


class TestPagePlan:
    def test_plan_is_the_page_in_order(self):
        params = SyntheticParams(num_pages=3, fragments_per_page=4, cacheability=0.5,
                                 pool_size=5, fragment_size=32)
        script = page_script(params)
        script.table.update({"version": 7}, key=2)
        for page_id in range(params.num_pages):
            plan = script.plan(page_id)
            indexes = [block_params["id"] for _, block_params, _, _ in plan]
            assert indexes == params.pool_indexes_for_page(page_id)
            for name, block_params, fragment_id, generate in plan:
                k = block_params["id"]
                assert name == ("frag" if params.is_cacheable(k) else "frag_nc")
                assert dict(block_params) == {"id": k}
                assert fragment_id is FragmentID.create(name, block_params)
                version = 7 if k == 2 else 0
                assert generate() == fragment_content(k, version, 32)

    def test_plan_is_built_once_and_read_only(self):
        script = page_script(SyntheticParams())
        plan = script.plan(2)
        assert script.plan(2) is plan
        with pytest.raises(TypeError):
            plan[0][1]["id"] = 99

    def test_page_out_of_range_builds_no_plan(self):
        script = page_script(SyntheticParams())
        with pytest.raises(ConfigurationError):
            script.plan(10)
        assert script._plans == {}

    def test_a_planned_page_reads_its_live_rows(self):
        params = SyntheticParams(cacheability=0.0, fragment_size=64)
        services = build_services(params)
        server = build_server(params, services=services, cost_model=FREE)
        request = HttpRequest("/page.jsp", {"pageID": "1"})
        before = server.handle(request).body
        touch_fragment(services, 5)
        after = server.handle(request).body
        assert before != after
        assert after == "".join(
            fragment_content(k, 1 if k == 5 else 0, 64) for k in (4, 5, 6, 7)
        )
