"""Tests for ScriptContext: page writing, cost accounting and the memo."""

import sys

import pytest

from repro.appserver.http import HttpRequest
from repro.appserver.scripts import ScriptContext, SiteServices
from repro.appserver.session import Session
from repro.core.bem import BackEndMonitor
from repro.core.fragments import Dependency, FragmentID
from repro.core.tagging import TagRegistry
from repro.core.template import (
    GetInstruction,
    Literal,
    SetInstruction,
    TemplateConfig,
)
from repro.database import Database, schema
from repro.errors import ScriptError
from repro.network.latency import GenerationCostModel


def make_ctx(bem=None, cost_model=None):
    db = Database()
    table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
    for i in range(20):
        table.insert({"k": i, "v": i})
    services = SiteServices(db=db)
    services.tags.tag("cached_block")
    ctx = ScriptContext(
        request=HttpRequest("/x"),
        session=Session(session_id="s"),
        services=services,
        cost_model=cost_model or GenerationCostModel(),
        bem=bem,
    )
    return ctx, services


@pytest.fixture
def registry():
    reg = TagRegistry()
    reg.tag("navbar", ttl=60.0)
    reg.tag(
        "listing",
        dependencies=lambda params: (
            Dependency("products", where_column="category",
                       where_value=params["cat"]),
        ),
    )
    reg.tag("banner", cacheable=False)
    return reg


def page(registry, bem=None):
    """A context writing one page against ``registry``'s tags."""
    return ScriptContext(
        request=HttpRequest("/x"),
        session=Session(session_id="s"),
        services=SiteServices(db=Database(), tags=registry),
        cost_model=GenerationCostModel(),
        bem=bem,
    )


class TestPlainPage:
    """Without a monitor every block runs and the body is the full page."""

    def test_everything_is_literal(self, registry):
        ctx = page(registry)
        ctx.write("<html>")
        ctx.block("navbar", {}, lambda: "NAV")
        ctx.write("</html>")
        assert ctx.template.normalized().instructions == [
            Literal("<html>NAV</html>")
        ]

    def test_body_is_the_full_page(self, registry):
        ctx = page(registry)
        ctx.block("navbar", {}, lambda: "NAV")
        assert ctx.response_body() == "NAV"

    def test_tallies_without_bem_count_as_generated(self, registry):
        ctx = page(registry)
        ctx.block("navbar", {}, lambda: "12345")
        assert ctx.generated_bytes == 5
        assert (ctx.blocks, ctx.hits, ctx.misses) == (1, 0, 0)

    def test_literal_body(self, registry):
        ctx = page(registry)
        ctx.write("page")
        assert ctx.response_body() == "page"

    def test_empty_literal_skipped(self, registry):
        ctx = page(registry)
        ctx.write("")
        assert ctx.template.instructions == []


class TestCachedPage:
    """With a BEM, tagged blocks become GET/SET instructions."""

    def test_miss_then_hit_instructions(self, registry):
        bem = BackEndMonitor(capacity=8)
        first = page(registry, bem)
        first.block("navbar", {}, lambda: "NAV")
        assert isinstance(first.template.instructions[0], SetInstruction)
        assert (first.hits, first.misses) == (0, 1)

        second = page(registry, bem)
        second.block("navbar", {}, lambda: "NAV")
        assert isinstance(second.template.instructions[0], GetInstruction)
        assert (second.hits, second.misses) == (1, 0)

    def test_untagged_block_never_cached(self):
        bem = BackEndMonitor(capacity=8)
        ctx = page(TagRegistry(), bem)
        ctx.block("mystery", {}, lambda: "X")
        assert ctx.template.instructions == [Literal("X")]
        assert bem.stats.blocks_processed == 0

    def test_non_cacheable_tag_never_cached(self, registry):
        bem = BackEndMonitor(capacity=8)
        ctx = page(registry, bem)
        ctx.block("banner", {}, lambda: "B")
        assert ctx.template.instructions == [Literal("B")]

    def test_body_is_the_template_in_cached_mode(self, registry):
        bem = BackEndMonitor(capacity=8)
        ctx = page(registry, bem)
        ctx.block("navbar", {}, lambda: "NAV")
        body = ctx.response_body()
        assert body != "NAV"
        assert body == ctx.template.serialize()

    def test_template_framed_with_the_monitors_config(self, registry):
        config = TemplateConfig(key_width=6)
        ctx = page(registry, BackEndMonitor(capacity=8, template_config=config))
        assert ctx.template.config == config
        assert page(registry).template.config == TemplateConfig()

    def test_params_differentiate_fragments(self, registry):
        bem = BackEndMonitor(capacity=8)
        page(registry, bem).block("listing", {"cat": "books"}, lambda: "BOOKS")
        page(registry, bem).block("listing", {"cat": "toys"}, lambda: "TOYS")
        assert bem.stats.fragment_misses == 2  # no false sharing


class TestBlockPath:
    def test_warm_hit_calls_process_block_directly(self, registry):
        """No writer layer sits between the page writer's one loop and the
        monitor: the frame calling ``process_block`` is ``write_blocks``,
        for a block and for a planned call alike."""
        bem = BackEndMonitor(capacity=8)
        page(registry, bem).block("navbar", {}, lambda: "NAV")
        page(registry, bem).block("listing", {"cat": "a"}, lambda: "LIST")
        callers = []
        process_block = bem.process_block

        def spy(fragment_id, describe, generate):
            callers.append(sys._getframe(1).f_code)
            return process_block(fragment_id, describe, generate)

        bem.process_block = spy
        ctx = page(registry, bem)
        ctx.block("navbar", {}, lambda: "never")
        ctx.write_blocks(
            (
                ("navbar", {}, FragmentID.create("navbar", {}), "n"),
                ("listing", {"cat": "a"}, None, "l"),
            ),
            lambda arg: "never",
        )
        assert ctx.hits == 3
        assert callers == [ScriptContext.write_blocks.__code__] * 3


class TestPlannedBlocks:
    def test_a_planned_id_is_what_the_monitor_sees(self, registry):
        """A plan's id reaches the monitor as is, not rebuilt (this one is
        equal to, but not, the interned id ``FragmentID.create`` returns)."""
        bem = BackEndMonitor(capacity=8)
        fragment_id = FragmentID("listing", (("cat", "a"),))
        assert fragment_id is not FragmentID.create("listing", {"cat": "a"})
        seen = []
        process_block = bem.process_block

        def spy(fid, describe, generate):
            seen.append(fid)
            return process_block(fid, describe, generate)

        bem.process_block = spy
        page(registry, bem).write_blocks(
            (("listing", {"cat": "a"}, fragment_id, lambda: "L"),)
        )
        assert seen[0] is fragment_id


class TestCostAccounting:
    def test_dispatch_cost_charged_upfront(self):
        ctx, _ = make_ctx()
        assert ctx.generation_cost_s == pytest.approx(
            ctx.cost_model.request_dispatch_s
        )

    def test_block_requires_generator(self):
        ctx, _ = make_ctx()
        with pytest.raises(ScriptError):
            ctx.block("anything", {})

    def test_db_rows_raise_generation_cost(self):
        ctx, services = make_ctx()
        base = ctx.generation_cost_s
        ctx.block("light", {}, lambda: "x")
        light_cost = ctx.generation_cost_s - base

        ctx2, services2 = make_ctx()
        base2 = ctx2.generation_cost_s

        def heavy():
            list(services2.db.table("t").scan())  # touches 20 rows
            return "x"

        ctx2.block("heavy", {}, heavy)
        heavy_cost = ctx2.generation_cost_s - base2
        assert heavy_cost > light_cost

    def test_output_bytes_raise_generation_cost(self):
        ctx, _ = make_ctx()
        base = ctx.generation_cost_s
        ctx.block("small", {}, lambda: "x")
        small = ctx.generation_cost_s - base

        ctx2, _ = make_ctx()
        base2 = ctx2.generation_cost_s
        ctx2.block("big", {}, lambda: "x" * 50_000)
        big = ctx2.generation_cost_s - base2
        assert big > small * 5

    def test_hit_charged_probe_cost_only(self):
        bem = BackEndMonitor(capacity=8)
        ctx, _ = make_ctx(bem=bem)
        ctx.block("cached_block", {}, lambda: "content")
        miss_cost = ctx.generation_cost_s

        ctx2, _ = make_ctx(bem=bem)
        ctx2.services.tags  # same registry name; new services but same bem
        ctx2.block("cached_block", {}, lambda: "content")
        hit_total = ctx2.generation_cost_s
        expected = (
            ctx2.cost_model.request_dispatch_s
            + ctx2.cost_model.block_hit_cost()
        )
        assert hit_total == pytest.approx(expected)
        assert hit_total < miss_cost


class TestMemo:
    def test_memo_without_bem_recomputes(self):
        ctx, _ = make_ctx(bem=None)
        calls = []
        ctx.memo("k", lambda: calls.append(1) or "v")
        ctx.memo("k", lambda: calls.append(1) or "v")
        assert len(calls) == 2

    def test_memo_with_bem_computes_once(self):
        bem = BackEndMonitor(capacity=8)
        ctx, _ = make_ctx(bem=bem)
        calls = []
        first = ctx.memo("k", lambda: calls.append(1) or {"profile": 1})
        second = ctx.memo("k", lambda: calls.append(1) or {"profile": 2})
        assert first is second
        assert len(calls) == 1

    def test_memo_shared_across_requests_via_bem(self):
        bem = BackEndMonitor(capacity=8)
        ctx1, _ = make_ctx(bem=bem)
        ctx2, _ = make_ctx(bem=bem)
        calls = []
        ctx1.memo("profile:bob", lambda: calls.append(1) or "p")
        ctx2.memo("profile:bob", lambda: calls.append(1) or "p")
        assert len(calls) == 1  # the §3.2.2 shared-object win
