"""Differential properties: the serve path is byte-identical to its oracles.

The serve path scans with ``str.find``, decodes and assembles each
response in one pass (behind a parse cache), and the origin writes the
wire as blocks resolve.  Each stage keeps one reference as its test
oracle: the per-character KMP scan (:func:`kmp_find_all`),
:func:`parse_template` followed by the per-instruction
:meth:`DynamicProxyCache.assemble`, and :meth:`Template.serialize`.
"Lanes" in the test names means the serve path and its oracle.  Every
observable — match positions, decoded templates, assembled pages, DPC
stats, and the scanned-byte counter behind Result 1 — must be equal on
randomized inputs, including escaped sentinels, adjacent tags, and
oversized fragments.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpc import DynamicProxyCache
from repro.core.scanner import find_positions, kmp_find_all, utf8_len
from repro.core.template import (
    SENTINEL,
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.errors import AssemblyError, OversizedFragmentError

# Sentinel-heavy alphabet so escaping and near-miss prefixes get exercised.
text = st.text(
    alphabet=string.ascii_letters + string.digits + "<>~:QSEG \n",
    max_size=80,
)
keys = st.integers(min_value=0, max_value=255)

instructions = st.one_of(
    text.map(Literal),
    keys.map(GetInstruction),
    st.tuples(keys, text).map(lambda kv: SetInstruction(*kv)),
)


# -- scanner ------------------------------------------------------------------


@given(text)
@settings(max_examples=300)
def test_find_scan_matches_kmp_on_sentinel(body):
    """Both scans report identical sentinel positions."""
    assert find_positions(body, SENTINEL) == kmp_find_all(body, SENTINEL)


@given(
    st.text(alphabet="ab~<", max_size=120),
    st.text(alphabet="ab~<", min_size=1, max_size=5),
)
@settings(max_examples=300)
def test_find_scan_matches_kmp_on_arbitrary_patterns(body, pattern):
    """Overlapping-match semantics agree for any nonempty pattern."""
    assert find_positions(body, pattern) == kmp_find_all(body, pattern)


@given(st.text(alphabet="ab<~é€", max_size=80))
def test_scanner_lanes_charge_identical_bytes(body):
    """Result 1 accounting: the DPC charges a response's UTF-8 bytes, on
    the scan and again on a parse-cache hit."""
    wire = Template().literal(body).serialize()
    dpc = DynamicProxyCache(capacity=4)
    dpc.process_response(wire)
    assert dpc.bytes_scanned == utf8_len(wire) == len(wire.encode("utf-8"))
    dpc.process_response(wire)
    assert dpc.bytes_scanned == 2 * len(wire.encode("utf-8"))


# -- parsing ------------------------------------------------------------------


@given(st.lists(instructions, max_size=16))
@settings(max_examples=200)
def test_parse_identical_across_lanes(instruction_list):
    """The reference parser decodes what was serialized, and the DPC's
    scan charges the scan counter the wire's UTF-8 bytes, whether or not
    its assembly raises.

    The generated streams include adjacent tags (consecutive GET/SET with
    no literal between them) and literals containing the raw sentinel,
    which serialization escapes.
    """
    wire = Template(instruction_list).serialize()
    assert parse_template(wire) == Template(instruction_list).normalized()
    dpc = DynamicProxyCache(capacity=256)
    try:
        dpc.process_response(wire)
    except AssemblyError:
        pass  # a GET of a slot the stream never SET
    assert dpc.bytes_scanned == len(wire.encode("utf-8"))


@given(st.lists(instructions, max_size=16))
@settings(max_examples=200)
def test_serialize_identical_across_lanes_and_after_mutation(instruction_list):
    """The render round-trips, and tracks every mutation."""
    template = Template(list(instruction_list))
    first = template.serialize()
    assert parse_template(first) == template.normalized()
    assert template.serialize() == first
    template.get(7)
    mutated = template.serialize()
    assert parse_template(mutated) == template.normalized()
    assert mutated == first + "<~G:0007~>"
    assert template.wire_bytes() == utf8_len(mutated)


# -- assembly -----------------------------------------------------------------


def _page(page):
    return (page.html, page.template_bytes, page.page_bytes,
            page.fragments_set, page.fragments_get)


def _serve_all(wires):
    """Assemble a wire sequence on a fresh DPC via the serve path."""
    dpc = DynamicProxyCache(capacity=256)
    return [_page(dpc.process_response(wire)) for wire in wires], dpc


def _reference_all(wires):
    """The oracle: parse each wire, then walk its instructions.

    The parser's pass over each wire is the scan, charged the wire's
    encoded length.
    """
    dpc = DynamicProxyCache(capacity=256)
    pages = []
    for wire in wires:
        dpc.stats.bytes_scanned += len(wire.encode("utf-8"))
        template = parse_template(wire)
        pages.append(_page(dpc.assemble(template, wire_bytes=utf8_len(wire))))
    return pages, dpc


@given(st.lists(st.tuples(keys, text), min_size=1, max_size=8), st.data())
@settings(max_examples=150)
def test_assembly_identical_across_lanes(fragments, data):
    """SET-then-GET exchanges produce identical pages, stats, and counters.

    The GET-only wire is served twice so the serve path's parse cache takes
    a hit — where the scan charge must keep the Result 1 counter in
    lockstep with the oracle's physical re-scan.
    """
    seen = {}
    for key, content in fragments:
        seen[key] = content
    set_template = Template()
    get_template = Template()
    for key, content in seen.items():
        set_template.literal(data.draw(text)).set(key, content)
        get_template.literal(data.draw(text)).get(key)
    wires = [set_template.serialize()] + [get_template.serialize()] * 2
    fast_pages, fast_dpc = _serve_all(wires)
    reference_pages, reference_dpc = _reference_all(wires)
    assert fast_dpc.parse_cache.hits == 1
    assert fast_pages == reference_pages
    assert fast_dpc.bytes_scanned == reference_dpc.bytes_scanned
    assert fast_dpc.stats == reference_dpc.stats


def test_oversized_fragment_rejected_identically():
    """Both decoders raise the same typed error on an oversized SET body."""
    config = TemplateConfig(max_fragment_bytes=64)
    oversized = Template(config=config).set(3, "x" * 65).serialize()
    with pytest.raises(OversizedFragmentError) as reference:
        parse_template(oversized, config)
    dpc = DynamicProxyCache(capacity=8, template_config=config)
    with pytest.raises(OversizedFragmentError) as fast:
        dpc.process_response(oversized)
    assert str(fast.value) == str(reference.value)
    assert dpc.occupied_slots() == 0


@given(text, text)
@settings(max_examples=100)
def test_escaped_sentinel_content_identical(prefix, suffix):
    """Content containing the raw sentinel survives both sides unchanged."""
    content = prefix + SENTINEL + suffix + SENTINEL
    wires = [Template().set(1, content).serialize(),
             Template().get(1).serialize()]
    fast_pages, _ = _serve_all(wires)
    reference_pages, _ = _reference_all(wires)
    assert fast_pages == reference_pages
    assert fast_pages[1][0] == content
