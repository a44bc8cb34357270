"""Tests for the tagging API: the TagRegistry of the initialization phase
and the refusal of a tagged block that has nothing to generate."""

import pytest

from repro.appserver.http import HttpRequest
from repro.appserver.scripts import ScriptContext, SiteServices
from repro.appserver.session import Session
from repro.core.bem import BackEndMonitor
from repro.core.fragments import Dependency
from repro.core.tagging import TagRegistry
from repro.database import Database
from repro.errors import ConfigurationError, ScriptError, TaggingError
from repro.network.latency import GenerationCostModel


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


class TestPageBuilderLifecycle:
    """A page is written through ScriptContext, which took over the
    PageBuilder's writing lifecycle."""

    def test_block_requires_generator(self, registry):
        """A tagged, cacheable block with no generator is refused before
        it reaches the monitor: nothing is counted or cached."""
        bem = BackEndMonitor(capacity=8)
        ctx = ScriptContext(
            request=HttpRequest("/x"),
            session=Session(session_id="s"),
            services=SiteServices(db=Database(), tags=registry),
            cost_model=GenerationCostModel(),
            bem=bem,
        )
        with pytest.raises(ScriptError):
            ctx.block("navbar", {})
        assert ctx.blocks == 0
        assert ctx.hits == 0
        assert len(bem.directory) == 0
