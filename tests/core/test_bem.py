"""Tests for the Back End Monitor's run-time protocol."""

import pytest

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core.bem import BackEndMonitor, ObjectCache
from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.core.replacement import make_policy
from repro.core.template import GetInstruction, Literal, SetInstruction, TemplateConfig
from repro.database import Database, schema
from repro.errors import ConfigurationError
from repro.network.clock import SimulatedClock
from repro.network.latency import GenerationCostModel


def fid(name, **params):
    return FragmentID.create(name, params or None)


@pytest.fixture
def bem():
    return BackEndMonitor(capacity=16)


class TestProtocol:
    def test_case1_miss_emits_set_with_content(self, bem):
        instruction = bem.process_block(fid("f"), FragmentMetadata, lambda: "hello")
        assert isinstance(instruction, SetInstruction)
        assert instruction.content == "hello"
        assert bem.stats.fragment_misses == 1

    def test_case2_hit_emits_get_and_skips_generator(self, bem):
        bem.process_block(fid("f"), FragmentMetadata, lambda: "hello")
        calls = []

        def generate():
            calls.append(1)
            return "regenerated"

        instruction = bem.process_block(fid("f"), FragmentMetadata, generate)
        assert isinstance(instruction, GetInstruction)
        assert calls == []  # the whole point: the block body never ran
        assert bem.stats.fragment_hits == 1

    def test_reserved_characters_cannot_alias_another_fragment(self):
        """A parameter value holding ``&user=bob`` is not Bob's fragment."""
        bem = BackEndMonitor(capacity=8)
        smuggled = FragmentID.create("search", {"q": "x&user=bob"})
        honest = FragmentID.create("search", {"q": "x", "user": "bob"})
        first = bem.process_block(smuggled, FragmentMetadata, lambda: "mine")
        second = bem.process_block(honest, FragmentMetadata, lambda: "bob's")
        assert isinstance(second, SetInstruction)
        assert second.content == "bob's"
        assert second.key != first.key
        assert bem.stats.fragment_misses == 2

    def test_get_reuses_set_key(self, bem):
        set_instr = bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        get_instr = bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        assert get_instr.key == set_instr.key

    def test_non_cacheable_block_is_literal_and_always_runs(self, bem):
        """Non-cacheable blocks are routed around the BEM by the context."""
        services = SiteServices(db=Database())
        services.tags.tag("nc", cacheable=False)
        pages = []
        for body in ("a", "b"):
            ctx = ScriptContext(
                HttpRequest("/x"), Session("s"), services, GenerationCostModel(), bem
            )
            ctx.block("nc", {}, lambda body=body: body)
            pages.append(ctx.template.instructions)
        assert pages == [[Literal("a")], [Literal("b")]]
        assert bem.stats.blocks_processed == 0

    def test_ttl_expiry_regenerates(self):
        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=8, clock=clock)
        meta = FragmentMetadata(ttl=10.0)
        bem.process_block(fid("f"), lambda: meta, lambda: "v1")
        clock.advance(11.0)
        instruction = bem.process_block(fid("f"), lambda: meta, lambda: "v2")
        assert isinstance(instruction, SetInstruction)
        assert instruction.content == "v2"

    def test_bytes_accounting(self, bem):
        bem.process_block(fid("f"), FragmentMetadata, lambda: "x" * 100)
        bem.process_block(fid("f"), FragmentMetadata, lambda: "x" * 100)
        assert bem.stats.bytes_generated == 100
        assert bem.stats.bytes_served_from_dpc == 100

    def test_hit_ratio_property(self, bem):
        bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        assert bem.hit_ratio == 0.5

    def test_capacity_must_fit_key_width(self):
        with pytest.raises(ConfigurationError):
            BackEndMonitor(capacity=1000, template_config=TemplateConfig(key_width=2))


class TestDatabaseIntegration:
    def test_update_invalidates_dependent_fragment(self, bem):
        db = Database()
        table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        table.insert({"k": 1, "v": 0})
        bem.attach_database(db.bus)

        meta = FragmentMetadata(dependencies=(Dependency("t", key=1),))
        bem.process_block(fid("f"), lambda: meta, lambda: "v0")
        table.update({"v": 1}, key=1)
        instruction = bem.process_block(fid("f"), lambda: meta, lambda: "v1")
        assert isinstance(instruction, SetInstruction)
        assert instruction.content == "v1"

    def test_unrelated_update_leaves_fragment_cached(self, bem):
        db = Database()
        table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        table.insert({"k": 1, "v": 0})
        table.insert({"k": 2, "v": 0})
        bem.attach_database(db.bus)

        meta = FragmentMetadata(dependencies=(Dependency("t", key=1),))
        bem.process_block(fid("f"), lambda: meta, lambda: "v0")
        table.update({"v": 9}, key=2)  # different row
        instruction = bem.process_block(fid("f"), lambda: meta, lambda: "never")
        assert isinstance(instruction, GetInstruction)


class TestManagement:
    def test_explicit_invalidate_fragment(self, bem):
        bem.process_block(fid("g", user="bob"), FragmentMetadata, lambda: "x")
        assert bem.invalidate_fragment("g", {"user": "bob"})
        assert not bem.invalidate_fragment("g", {"user": "bob"})

    def test_invalidate_block_across_params(self, bem):
        for user in ("a", "b", "c"):
            bem.process_block(fid("g", user=user), FragmentMetadata, lambda: "x")
        assert bem.invalidate_block("g") == 3

    def test_flush(self, bem):
        bem.process_block(fid("a"), FragmentMetadata, lambda: "x")
        bem.process_block(fid("b"), FragmentMetadata, lambda: "x")
        assert bem.flush() == 2
        assert bem.directory.valid_count() == 0

    def test_named_policy_constructor(self):
        bem = BackEndMonitor(capacity=16, policy=make_policy("lfu"))
        assert bem.directory.policy.name == "lfu"


class TestDeadlinePressure:
    """The stale-on-late fallback in :meth:`process_block`."""

    def make(self, clock, grace_s=100.0):
        from repro.faults.degradation import GracefulDegrader

        bem = BackEndMonitor(capacity=8, clock=clock)
        degrader = GracefulDegrader(bem=bem, grace_s=grace_s)
        bem.attach_degrader(degrader)
        return bem

    def test_fresh_entry_under_pressure_keeps_recency(self, clock):
        bem = self.make(clock)
        meta = FragmentMetadata(ttl=50.0)
        bem.process_block(fid("f"), lambda: meta, lambda: "v1")
        clock.advance(5.0)
        bem.deadline_at = clock.now()  # the request is already late
        instruction = bem.process_block(fid("f"), lambda: meta, lambda: "v2")
        assert isinstance(instruction, GetInstruction)
        # The fresh entry went through the normal lookup() path: recency
        # and hit bookkeeping advance, so leaning on a fragment under
        # deadline pressure does not turn it into an LRU eviction victim.
        entry = bem.directory.peek(fid("f"))
        assert entry.last_access == clock.now()
        assert entry.hits == 1
        assert bem.stats.fragment_hits == 1
        assert bem.stats.stale_fragment_serves == 0

    def test_expired_within_grace_serves_stale_without_running_block(self, clock):
        bem = self.make(clock)
        meta = FragmentMetadata(ttl=1.0)
        bem.process_block(fid("f"), lambda: meta, lambda: "v1")
        clock.advance(5.0)  # expired, but inside the grace window
        bem.deadline_at = clock.now()
        calls = []
        instruction = bem.process_block(
            fid("f"), lambda: meta, lambda: calls.append(1) or "v2"
        )
        assert isinstance(instruction, GetInstruction)
        assert calls == []  # no regeneration for an already-late request
        assert bem.stats.stale_fragment_serves == 1


class TestObjectCache:
    def test_fetch_computes_once(self, clock):
        cache = ObjectCache(clock)
        calls = []
        compute = lambda: calls.append(1) or {"x": 1}
        first = cache.fetch("k", compute)
        second = cache.fetch("k", compute)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1

    def test_ttl_expiry(self, clock):
        cache = ObjectCache(clock)
        cache.fetch("k", lambda: "v1", ttl=5.0)
        clock.advance(6.0)
        assert cache.fetch("k", lambda: "v2", ttl=5.0) == "v2"
        assert cache.misses == 2

    def test_invalidate(self, clock):
        cache = ObjectCache(clock)
        cache.fetch("k", lambda: 1)
        assert cache.invalidate("k")
        assert not cache.invalidate("k")

    def test_invalidate_prefix(self, clock):
        cache = ObjectCache(clock)
        cache.fetch("profile:bob", lambda: 1)
        cache.fetch("profile:alice", lambda: 2)
        cache.fetch("account:bob", lambda: 3)
        assert cache.invalidate_prefix("profile:") == 2
        assert len(cache) == 1
