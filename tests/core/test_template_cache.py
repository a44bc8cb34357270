"""Tests for template serialization and the parse cache."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core import fragments
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import FragmentID
from repro.core import template as template_module
from repro.core.template import Template, TemplateCache, parse_template
from repro.database import Database
from repro.errors import ConfigurationError
from repro.insight import InsightLayer
from repro.network.latency import GenerationCostModel


class TestSerializeMemo:
    """``serialize()`` and ``wire_bytes()`` reflect every mutation."""

    def test_serialize_tracks_mutation(self):
        template = Template().literal("a").get(1)
        first = template.serialize()
        template.literal("b")
        second = template.serialize()
        assert second != first
        assert second == first + "b"
        assert parse_template(second) == template.normalized()

    def test_wire_bytes_tracks_mutation(self):
        template = Template().get(1)
        before = template.wire_bytes()
        template.literal("xyz")
        assert template.wire_bytes() == before + 3


class TestTemplateCache:
    def test_lru_eviction_order(self):
        cache = TemplateCache(maxsize=2)
        cache.put("a", Template().literal("a"))
        cache.put("b", Template().literal("b"))
        assert cache.get("a") is not None  # refresh 'a'
        cache.put("c", Template().literal("c"))
        assert cache.get("b") is None      # LRU victim
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_hit_and_miss_counters(self):
        cache = TemplateCache()
        assert cache.get("missing") is None
        cache.put("w", Template())
        assert cache.get("w") is not None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_oversized_wire_not_cached(self):
        cache = TemplateCache(max_wire_bytes=4)
        cache.put("longwire", Template())
        assert len(cache) == 0
        assert cache.get("longwire") is None

    def test_wire_limit_counts_utf8_bytes(self):
        cache = TemplateCache(max_wire_bytes=4)
        cache.put("ééé", ((), 0, 0))  # 3 characters, 6 UTF-8 bytes
        assert len(cache) == 0
        cache.put("éé", ((), 0, 0))   # 4 bytes: at the limit
        assert len(cache) == 1

    def test_clear(self):
        cache = TemplateCache()
        cache.put("w", Template())
        cache.clear()
        assert len(cache) == 0

    def test_byte_budget_evicts_before_the_entry_bound(self):
        cache = TemplateCache(maxsize=10, max_wire_bytes=10)
        cache.put("aaaa", 1)
        cache.put("bbbb", 2)
        assert cache.get("aaaa") == 1   # refresh 'aaaa'
        cache.put("cccc", 3)            # 12 bytes > 10: one LRU eviction
        assert list(cache._entries) == ["aaaa", "cccc"]
        assert cache.wire_bytes == 8
        assert cache.get("bbbb") is None
        cache.put("dddddddddd", 4)      # exactly the budget: evicts the rest
        assert list(cache._entries) == ["dddddddddd"]
        assert cache.wire_bytes == 10

    def test_entry_bound_still_binds_under_the_byte_budget(self):
        cache = TemplateCache(maxsize=2, max_wire_bytes=1 << 20)
        for wire in ("a", "b", "c"):
            cache.put(wire, wire)
        assert list(cache._entries) == ["b", "c"]
        assert cache.wire_bytes == 2

    def test_re_putting_a_cached_wire_counts_its_bytes_once(self):
        cache = TemplateCache(maxsize=4, max_wire_bytes=10)
        cache.put("aaaa", 1)
        cache.put("bbbb", 2)
        cache.put("aaaa", 3)            # replaces, refreshes, no new bytes
        assert cache.wire_bytes == 8
        assert list(cache._entries) == ["bbbb", "aaaa"]
        assert cache.get("aaaa") == 3
        assert cache._lengths == {4: 2}
        cache.put("cc", 4)              # 10 bytes: both still fit
        assert len(cache) == 3

    def test_clear_resets_the_byte_total(self):
        cache = TemplateCache(maxsize=4, max_wire_bytes=8)
        cache.put("aaaa", 1)
        cache.put("bbbb", 2)
        cache.clear()
        assert cache.wire_bytes == 0
        cache.put("cccc", 3)
        cache.put("dddd", 4)            # a stale total would evict 'cccc'
        assert list(cache._entries) == ["cccc", "dddd"]
        assert cache.wire_bytes == 8

    def test_non_ascii_wire_counts_utf8_bytes_in_the_total(self):
        cache = TemplateCache(maxsize=4, max_wire_bytes=7)
        cache.put("ééé", 1)             # 3 characters, 6 UTF-8 bytes
        assert cache.wire_bytes == 6
        cache.put("ab", 2)              # 8 bytes > 7: 'ééé' goes
        assert list(cache._entries) == ["ab"]
        assert cache.wire_bytes == 2

    def test_a_measured_wire_is_not_measured_again(self, monkeypatch):
        cache = TemplateCache(max_wire_bytes=8)

        def unexpected(text):
            raise AssertionError("wire measured twice")

        monkeypatch.setattr(template_module, "utf8_len", unexpected)
        cache.put("ééé", 1, 6)
        assert cache.wire_bytes == 6
        with pytest.raises(AssertionError):
            cache.put("ab", 2)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            TemplateCache(max_wire_bytes=0)


class CountingStr(str):
    """A wire that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        self.hashed += 1
        return super().__hash__()


class TestLengthIndex:
    def test_probe_of_an_unmatched_length_is_not_hashed(self):
        cache = TemplateCache()
        cache.put("abc", Template())
        probe = CountingStr("abcd")
        assert cache.get(probe) is None
        assert probe.hashed == 0
        assert (cache.hits, cache.misses) == (0, 1)

    def test_probe_of_a_cached_length_is_hashed(self):
        cache = TemplateCache()
        cache.put("abc", Template())
        probe = CountingStr("xyz")
        assert cache.get(probe) is None
        assert probe.hashed == 1
        hit = CountingStr("abc")
        assert cache.get(hit) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "get", "get", "clear"]),
                st.text(alphabet="abé", max_size=5),
            ),
            max_size=80,
        ),
        st.integers(1, 4),
        st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_length_counts_match_a_plain_dict_oracle(self, ops, maxsize, limit):
        """Through puts, LRU evictions by entry count and by total bytes,
        oversized skips and clears, the counts are exactly the lengths of
        the cached wires, the byte total is their UTF-8 size, and every
        probe answers and counts as the plain LRU dict does."""
        cache = TemplateCache(maxsize=maxsize, max_wire_bytes=limit)
        oracle = {}  # wire -> plan, in LRU order (oldest first)
        hits = misses = 0

        def oracle_bytes():
            return sum(len(w.encode("utf-8")) for w in oracle)

        for op, wire in ops:
            if op == "put":
                cache.put(wire, (wire,))
                if len(wire.encode("utf-8")) <= limit:
                    oracle.pop(wire, None)
                    oracle[wire] = (wire,)
                    while len(oracle) > maxsize or oracle_bytes() > limit:
                        del oracle[next(iter(oracle))]
            elif op == "get":
                expected = oracle.pop(wire, None)
                if expected is None:
                    misses += 1
                else:
                    hits += 1
                    oracle[wire] = expected
                assert cache.get(wire) == expected
            else:
                cache.clear()
                oracle.clear()
            assert list(cache._entries) == list(oracle)
            assert cache._lengths == Counter(len(w) for w in oracle)
            assert cache.wire_bytes == oracle_bytes()
            assert (cache.hits, cache.misses) == (hits, misses)


class TestDpcParseCache:
    def test_warm_wire_served_from_cache(self):
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag").serialize())
        wire = Template().get(1).serialize()
        dpc.process_response(wire)
        misses = dpc.parse_cache.misses
        dpc.process_response(wire)
        assert dpc.parse_cache.hits >= 1
        assert dpc.parse_cache.misses == misses

    def test_cache_hit_still_charges_scan_bytes(self):
        """Result 1: scanned bytes grow by the wire's bytes on a cache hit."""
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag").serialize())
        wire = Template().get(1).serialize()
        dpc.process_response(wire)
        before = dpc.bytes_scanned
        dpc.process_response(wire)  # parse-cache hit
        assert dpc.bytes_scanned == before + len(wire)

    def test_set_bearing_wire_is_not_cached(self):
        dpc = DynamicProxyCache(capacity=16)
        wire = Template().literal("a").set(1, "frag").serialize()
        dpc.process_response(wire)
        dpc.process_response(wire)
        assert len(dpc.parse_cache) == 0
        assert dpc.parse_cache.hits == 0
        assert dpc.parse_cache.misses == 2

    def test_get_only_wire_is_cached_as_its_skeleton(self):
        """The cache keeps the text parts and, per GET, its part index and
        dpcKey; a GET's part is a hole, so no slot content is pinned."""
        dpc = DynamicProxyCache(capacity=16)
        wire = Template().literal("a").get(1).literal("b").get(2).serialize()
        dpc.process_response(Template().set(1, "frag").set(2, "x").serialize())
        dpc.process_response(wire)
        assert len(dpc.parse_cache) == 1
        parts, gets = dpc.parse_cache.get(wire)
        assert parts == ("a", None, "b", None)
        assert gets == ((1, 1), (3, 2))
        assert dpc.process_response(wire).html == "afragbx"

    def test_scan_puts_the_wire_with_the_size_it_measured(self, monkeypatch):
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag é").serialize())
        wire = Template().literal("é").get(1).serialize()
        calls = []
        measure = template_module.utf8_len
        monkeypatch.setattr(
            template_module, "utf8_len", lambda text: calls.append(text) or measure(text)
        )
        dpc.process_response(wire)
        assert calls == []
        assert dpc.parse_cache.wire_bytes == len(wire.encode("utf-8"))

    def test_clear_drops_parse_cache(self):
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag").serialize())
        dpc.process_response(Template().get(1).serialize())
        assert len(dpc.parse_cache) >= 1
        dpc.clear()
        assert len(dpc.parse_cache) == 0
        assert dpc.parse_cache.wire_bytes == 0


class TestFragmentIdMemo:
    """A fragment id renders its canonical string only where one is read."""

    def test_warm_block_hit_renders_no_canonical(self, monkeypatch):
        calls = []
        render = fragments._canonical

        def counting(name, params):
            calls.append(name)
            return render(name, params)

        monkeypatch.setattr(fragments, "_canonical", counting)
        services = SiteServices(db=Database())
        services.tags.tag("page")

        def page(bem):
            return ScriptContext(
                HttpRequest("/x"), Session("s"), services, GenerationCostModel(), bem
            )

        for insight in (None, InsightLayer()):
            bem = BackEndMonitor(capacity=8)
            if insight is not None:
                insight.attach(bem=bem)
            page(bem).block("page", {"user": "bob"}, lambda: "x")
            del calls[:]
            ctx = page(bem)
            ctx.block("page", {"user": "bob"}, lambda: "never")
            assert ctx.hits == 1
            assert calls == []
        assert FragmentID.create("page", {"user": "bob"}).canonical() == "page?user=bob"
        assert calls == ["page"]

    def test_equal_ids_share_canonical_value(self):
        a = FragmentID.create("f", {"i": 1})
        b = FragmentID.create("f", {"i": 1})
        assert a == b
        assert a.canonical() == b.canonical()
        assert hash(a) == hash(b)
