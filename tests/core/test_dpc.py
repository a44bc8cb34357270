"""Tests for the Dynamic Proxy Cache slot array and assembly loop."""

import pytest

from repro.core.dpc import DynamicProxyCache
from repro.core.template import Template, TemplateConfig
from repro.errors import AssemblyError, ConfigurationError, SlotError


@pytest.fixture
def dpc():
    return DynamicProxyCache(capacity=16)


class TestSlots:
    def test_store_and_fetch(self, dpc):
        dpc.store(3, "content")
        assert dpc.fetch(3) == "content"
        assert dpc.slot_in_use(3)

    def test_fetch_empty_slot_is_protocol_error(self, dpc):
        with pytest.raises(AssemblyError):
            dpc.fetch(5)

    def test_out_of_range_key(self, dpc):
        with pytest.raises(SlotError):
            dpc.store(99, "x")
        with pytest.raises(SlotError):
            dpc.fetch(-1)

    def test_overwrite_slot(self, dpc):
        dpc.store(1, "old")
        dpc.store(1, "new")
        assert dpc.fetch(1) == "new"

    def test_occupied_slots(self, dpc):
        dpc.store(0, "a")
        dpc.store(5, "b")
        assert dpc.occupied_slots() == 2

    def test_clear(self, dpc):
        dpc.store(0, "a")
        dpc.clear()
        assert dpc.occupied_slots() == 0

    def test_capacity_must_fit_key_width(self):
        with pytest.raises(ConfigurationError):
            DynamicProxyCache(capacity=1000, template_config=TemplateConfig(key_width=2))


class TestAssembly:
    def test_set_stores_and_emits(self, dpc):
        wire = Template().literal("<a>").set(1, "frag").literal("</a>").serialize()
        page = dpc.process_response(wire)
        assert page.html == "<a>frag</a>"
        assert page.fragments_set == 1
        assert dpc.fetch(1) == "frag"

    def test_get_splices_cached_content(self, dpc):
        dpc.process_response(Template().set(1, "cached!").serialize())
        page = dpc.process_response(
            Template().literal("[").get(1).literal("]").serialize()
        )
        assert page.html == "[cached!]"
        assert page.fragments_get == 1

    def test_first_request_set_then_get_flow(self, dpc):
        """§4.3.2: first response all SETs, later ones mostly GETs."""
        first = Template().set(0, "nav").literal("|").set(1, "body")
        second = Template().get(0).literal("|").get(1)
        page1 = dpc.process_response(first.serialize())
        page2 = dpc.process_response(second.serialize())
        assert page1.html == page2.html == "nav|body"
        assert page2.template_bytes < page1.template_bytes

    def test_get_for_never_set_slot_raises(self, dpc):
        with pytest.raises(AssemblyError):
            dpc.process_response(Template().get(7).serialize())

    def test_expansion_ratio(self, dpc):
        dpc.process_response(Template().set(1, "x" * 980).serialize())
        page = dpc.process_response(Template().get(1).serialize())
        # 980 payload bytes from a 10-byte GET template: 98x expansion.
        assert page.expansion_ratio == pytest.approx(98.0)

    def test_plain_passthrough(self, dpc):
        page = dpc.process_response("just plain html, no tags")
        assert page.html == "just plain html, no tags"
        assert page.fragments_set == page.fragments_get == 0

    def test_stats_accumulate(self, dpc):
        dpc.process_response(Template().set(1, "abc").serialize())
        dpc.process_response(Template().get(1).serialize())
        assert dpc.stats.responses_processed == 2
        assert dpc.stats.fragments_set == 1
        assert dpc.stats.fragments_get == 1
        assert dpc.stats.page_bytes_out == 6
        assert dpc.stats.bytes_saved == dpc.stats.page_bytes_out - dpc.stats.template_bytes_in

    def test_scanner_counts_every_response_byte(self, dpc):
        wire = Template().literal("x" * 100).serialize()
        dpc.process_response(wire)
        assert dpc.bytes_scanned == len(wire)

    def test_scanner_counts_utf8_bytes_not_characters(self, dpc):
        """The §5 scan cost ``z`` is per byte: 86 bytes, though 75 characters."""
        wire = Template().literal("café " * 10).set(1, "naïve").serialize()
        dpc.process_response(wire)
        assert dpc.stats.template_bytes_in == 86
        assert dpc.bytes_scanned == dpc.stats.template_bytes_in
        warm = Template().literal("café ").get(1).serialize()
        dpc.process_response(warm)
        dpc.process_response(warm)  # parse-cache hit
        assert dpc.parse_cache.hits == 1
        assert dpc.bytes_scanned == dpc.stats.template_bytes_in

    def test_scan_charge_counts_a_response_whose_assembly_raises(self, dpc):
        """The bytes crossed the proxy and were scanned: ``bytes_scanned``
        counts them, ``template_bytes_in`` (assembled responses) does not."""
        wire = Template().literal("ab").get(7).serialize()
        with pytest.raises(AssemblyError):
            dpc.process_response(wire)
        assert dpc.bytes_scanned == dpc.stats.bytes_scanned == len(wire)
        assert dpc.stats.template_bytes_in == 0
        assert dpc.stats.responses_processed == 0

    def test_escaped_sentinel_in_content_survives(self, dpc):
        wire = Template().set(1, "tag-ish <~ content").serialize()
        page = dpc.process_response(wire)
        assert page.html == "tag-ish <~ content"
        assert dpc.fetch(1) == "tag-ish <~ content"
