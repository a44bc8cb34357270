"""Tests for the tagging API: TagRegistry and PageBuilder."""

import pytest

from repro.core.bem import BackEndMonitor
from repro.core.fragments import Dependency
from repro.core.tagging import PageBuilder, TagRegistry
from repro.core.template import GetInstruction, Literal, SetInstruction
from repro.errors import ConfigurationError, TaggingError


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


class TestTagRegistry:
    def test_duplicate_tag_rejected(self, registry):
        with pytest.raises(TaggingError):
            registry.tag("navbar")

    def test_lookup(self, registry):
        assert registry.lookup("navbar").ttl == 60.0
        assert registry.lookup("nothing") is None

    def test_cacheable_fraction(self, registry):
        assert registry.cacheable_fraction() == pytest.approx(2 / 3)

    def test_cacheable_fraction_empty(self):
        assert TagRegistry().cacheable_fraction() == 0.0

    @pytest.mark.parametrize("ttl", [float("nan"), 0.0, -1.0])
    def test_bad_ttl_rejected_at_tag_time(self, ttl):
        """Metadata is built only on a miss, so the tag itself is checked."""
        registry = TagRegistry()
        with pytest.raises(ConfigurationError):
            registry.tag("x", ttl=ttl)
        assert "x" not in registry

    @pytest.mark.parametrize("ttl", [float("nan"), 0.0, -1.0])
    def test_bad_ttl_rejected_at_retag_time(self, registry, ttl):
        with pytest.raises(ConfigurationError):
            registry.retag("navbar", ttl=ttl)
        assert registry.lookup("navbar").ttl == 60.0

    def test_metadata_from_params(self, registry):
        meta = registry.lookup("listing").metadata_for({"cat": "books"})
        assert meta.dependencies[0].where_value == "books"

    def test_contains_and_names(self, registry):
        assert "navbar" in registry
        assert registry.names() == ["banner", "listing", "navbar"]
        assert len(registry) == 3


class TestPageBuilderNoCache:
    def test_everything_is_literal(self, registry):
        builder = PageBuilder(registry, bem=None)
        builder.literal("<html>")
        builder.block("navbar", {}, lambda: "NAV")
        builder.literal("</html>")
        template = builder.finish()
        assert template.instructions == [Literal("<html>NAV</html>")]

    def test_full_page_renders(self, registry):
        builder = PageBuilder(registry, bem=None)
        builder.block("navbar", {}, lambda: "NAV")
        assert builder.full_page() == "NAV"

    def test_stats_without_bem_count_as_generated(self, registry):
        builder = PageBuilder(registry, bem=None)
        builder.block("navbar", {}, lambda: "12345")
        assert builder.stats.generated_bytes == 5
        assert builder.stats.hits == 0


class TestPageBuilderWithBem:
    def test_miss_then_hit_instructions(self, registry):
        bem = BackEndMonitor(capacity=8)
        first = PageBuilder(registry, bem=bem)
        first.block("navbar", {}, lambda: "NAV")
        assert isinstance(first.finish().instructions[0], SetInstruction)

        second = PageBuilder(registry, bem=bem)
        second.block("navbar", {}, lambda: "NAV")
        assert isinstance(second.finish().instructions[0], GetInstruction)
        assert second.stats.hits == 1

    def test_untagged_block_never_cached(self):
        bem = BackEndMonitor(capacity=8)
        registry = TagRegistry()
        builder = PageBuilder(registry, bem=bem)
        builder.block("mystery", {}, lambda: "X")
        assert builder.finish().instructions == [Literal("X")]
        assert bem.stats.blocks_processed == 0

    def test_non_cacheable_tag_never_cached(self, registry):
        bem = BackEndMonitor(capacity=8)
        builder = PageBuilder(registry, bem=bem)
        builder.block("banner", {}, lambda: "B")
        assert builder.finish().instructions == [Literal("B")]

    def test_full_page_unavailable_in_cached_mode(self, registry):
        bem = BackEndMonitor(capacity=8)
        builder = PageBuilder(registry, bem=bem)
        builder.block("navbar", {}, lambda: "NAV")
        with pytest.raises(TaggingError):
            builder.full_page()

    def test_params_differentiate_fragments(self, registry):
        bem = BackEndMonitor(capacity=8)
        b1 = PageBuilder(registry, bem=bem)
        b1.block("listing", {"cat": "books"}, lambda: "BOOKS")
        b2 = PageBuilder(registry, bem=bem)
        b2.block("listing", {"cat": "toys"}, lambda: "TOYS")
        assert bem.stats.fragment_misses == 2  # no false sharing


class TestPageBuilderLifecycle:
    def test_block_requires_generator(self, registry):
        builder = PageBuilder(registry)
        with pytest.raises(TaggingError):
            builder.block("navbar", {})

    def test_write_after_finish_rejected(self, registry):
        builder = PageBuilder(registry)
        builder.finish()
        with pytest.raises(TaggingError):
            builder.literal("late")
        with pytest.raises(TaggingError):
            builder.block("navbar", {}, lambda: "x")

    def test_response_body_auto_finishes(self, registry):
        builder = PageBuilder(registry)
        builder.literal("page")
        assert builder.response_body() == "page"

    def test_empty_literal_skipped(self, registry):
        builder = PageBuilder(registry)
        builder.literal("")
        assert builder.finish().instructions == []
