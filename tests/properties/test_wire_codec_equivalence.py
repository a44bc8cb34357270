"""Differential properties of the DPC's one-pass decode and assembly.

The serve path never builds :class:`Template` objects for an origin
response: :meth:`DynamicProxyCache.process_response` scans the wire and
assembles it in one pass.  These tests pin it to the reference decoder
kept as its oracle: a sequence of responses through ``process_response``
yields the same pages, :class:`DpcStats`, scanned bytes and slot array as
``parse_template`` + ``assemble`` on a second DPC, and on an error the
same exception with the same slots left behind.  The reference encoder,
:meth:`Template.serialize`, escapes a sentinel split across two adjacent
literals as the merged literal would be.

"Lanes" in a test name means the serve path and its oracle.

Wires come from ``serialize()`` of random instruction streams (text heavy
in ``<``, ``~`` and ``<~``) and from raw strings over the protocol-fuzz
alphabet, including non-ASCII digits that must not pass as a dpcKey.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpc import DynamicProxyCache
from repro.core.template import (
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
    utf8_len,
)

#: Small fragment limit on a narrow key width, so oversized SET bodies and
#: malformed widths both occur; and the default framing.
CONFIGS = st.sampled_from(
    [TemplateConfig(), TemplateConfig(key_width=2, max_fragment_bytes=24)]
)
CAPACITY = 6

# Boundary-heavy text: sentinel halves, a whole sentinel, and non-ASCII.
text = st.lists(
    st.sampled_from(list("ab<~>Q:G09 é") + ["<~", "~>", "<~Q~>"]),
    max_size=12,
).map("".join)
# Keys 0..7 against 6 slots: GETs mostly hit, and some are out of range.
keys = st.integers(min_value=0, max_value=7)
instructions = st.one_of(
    text.map(Literal),
    keys.map(GetInstruction),
    st.tuples(keys, text).map(lambda kv: SetInstruction(*kv)),
)

#: The protocol-fuzz alphabet (see tests/core/test_protocol_fuzz.py).
RAW_WIRE = st.lists(
    st.sampled_from(
        list("<~>GSEQ:0123456789²١５")
        + ["<~", "~>", "<~G:", "<~S:", "<~E:", "<~Q~>"]
    ),
    max_size=40,
).map("".join)


def _serialized(config):
    return st.lists(instructions, max_size=10).map(
        lambda stream: Template(stream, config).serialize()
    )


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return ("raised", type(exc), str(exc))


def _wires(config):
    return st.one_of(_serialized(config), RAW_WIRE)


@st.composite
def config_and_wires(draw):
    """A response sequence; one wire is repeated so parse-cache hits occur."""
    config = draw(CONFIGS)
    wires = draw(st.lists(_wires(config), min_size=1, max_size=5))
    wires.append(draw(st.sampled_from(wires)))
    return config, wires


# -- DPC side: whole responses -------------------------------------------------


def _slots(dpc):
    return [
        dpc.fetch(key) if dpc.slot_in_use(key) else None
        for key in range(dpc.capacity)
    ]


def _process(dpc, wire):
    return dpc.process_response(wire)


def _parse_then_assemble(dpc, wire):
    # The parser's one pass over the wire is the scan; charge it first, as
    # the serve path does, so a wire that fails to decode is counted too.
    dpc.stats.bytes_scanned += len(wire.encode("utf-8"))
    template = parse_template(wire, dpc.template_config)
    return dpc.assemble(template, wire_bytes=utf8_len(wire))


def _serve(config, wires, serve):
    """Each response's page or error, and the slots after it, on one DPC."""
    dpc = DynamicProxyCache(capacity=CAPACITY, template_config=config)
    trail = []
    for wire in wires:
        result = _outcome(lambda: serve(dpc, wire))
        if result[0] == "ok":
            page = result[1]
            result = ("ok", page.html, page.template_bytes, page.page_bytes,
                      page.fragments_set, page.fragments_get, page.epoch)
        trail.append((result, _slots(dpc)))
    return trail, dpc


@given(config_and_wires())
@settings(max_examples=300, deadline=None)
def test_process_response_identical_across_lanes(case):
    config, wires = case
    fast_trail, fast_dpc = _serve(config, wires, _process)
    reference_trail, reference_dpc = _serve(config, wires, _parse_then_assemble)
    assert fast_trail == reference_trail
    assert fast_dpc.stats == reference_dpc.stats
    assert fast_dpc.bytes_scanned == reference_dpc.bytes_scanned
    assert fast_dpc.bytes_scanned == sum(utf8_len(wire) for wire in wires)


# -- origin side: the reference encoder ----------------------------------------


def test_sentinel_split_across_adjacent_literals_is_escaped():
    template = Template().literal("a<").literal("~b").get(1).literal("").literal("<~")
    wire = template.serialize()
    assert wire == "a<~Q~>b<~G:0001~><~Q~>"
    assert parse_template(wire) == template.normalized()
