"""Fuzz the wire protocol: malformed input must fail *typed*, never crash.

The template grammar is the trust boundary between the origin and the
proxy: a hostile or corrupted response stream reaches ``parse_template``
and the DPC assembly loop byte-for-byte.  These tests throw random and
adversarially mutated wire text at both layers and assert the only
observable failure mode is a :class:`~repro.errors.ProtocolError`
subclass — no ``KeyError``/``IndexError``/``ValueError`` leaking from the
internals, no partially-applied state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpc import DynamicProxyCache
from repro.core.template import (
    SENTINEL,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.errors import (
    AssemblyError,
    OversizedFragmentError,
    ProtocolError,
    ReproError,
    SlotError,
    TemplateError,
)

#: Alphabet biased toward protocol framing so mutations hit tag machinery.
WIRE_ALPHABET = st.sampled_from(
    list("<~>GSEQ:0123456789²١５")
    + ["<~", "~>", "<~G:", "<~S:", "<~E:", "<~Q~>"]
)
WIRE_TEXT = st.lists(WIRE_ALPHABET, max_size=60).map("".join)


def valid_wire() -> str:
    template = Template()
    template.literal("<html>")
    template.set(3, "fragment three")
    template.literal(" middle ")
    template.get(3)
    template.literal("</html>")
    return template.serialize()


class TestParserFuzz:
    @given(WIRE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_random_wire_parses_or_raises_protocol_error(self, wire):
        try:
            parse_template(wire)
        except ProtocolError:
            pass

    @given(WIRE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_random_wire_through_the_full_dpc(self, wire):
        dpc = DynamicProxyCache(capacity=16)
        try:
            dpc.process_response(wire)
        except ProtocolError:
            pass

    @given(st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_spliced_valid_wire_never_crashes(self, cut_a, cut_b):
        wire = valid_wire()
        lo, hi = sorted((cut_a % (len(wire) + 1), cut_b % (len(wire) + 1)))
        mutated = wire[:lo] + wire[hi:]
        try:
            parse_template(mutated)
        except ProtocolError:
            pass

    @given(st.integers(0, 200), WIRE_ALPHABET)
    @settings(max_examples=150, deadline=None)
    def test_single_point_mutation_never_crashes(self, where, junk):
        wire = valid_wire()
        where %= len(wire)
        mutated = wire[:where] + junk + wire[where + 1:]
        try:
            parse_template(mutated)
        except ProtocolError:
            pass


class TestKnownMalformations:
    def test_truncated_set_body_is_unterminated(self):
        wire = valid_wire()
        truncated = wire[: wire.index("fragment") + 4]
        with pytest.raises(TemplateError):
            parse_template(truncated)

    def test_end_without_set(self):
        with pytest.raises(TemplateError):
            parse_template("before<~E:0007~>after")

    def test_tag_inside_set_body(self):
        with pytest.raises(TemplateError):
            parse_template("<~S:0001~>body<~G:0002~><~E:0001~>")

    def test_garbled_tag_kind_and_key(self):
        for wire in ("<~X:0001~>", "<~G?0001~>", "<~G:12ab~>", "<~G:01~>"):
            with pytest.raises(TemplateError):
                parse_template(wire)

    def test_get_out_of_range_key_is_a_slot_error(self):
        dpc = DynamicProxyCache(capacity=8)
        with pytest.raises(SlotError):
            dpc.process_response("<~G:0100~>")

    def test_get_for_never_set_key_is_an_assembly_error(self):
        dpc = DynamicProxyCache(capacity=8)
        with pytest.raises(AssemblyError):
            dpc.process_response("<~G:0003~>")

    def test_oversized_set_body_rejected_before_storing(self):
        config = TemplateConfig(max_fragment_bytes=16)
        dpc = DynamicProxyCache(capacity=8, template_config=config)
        wire = "<~S:0002~>" + "x" * 64 + "<~E:0002~>"
        with pytest.raises(OversizedFragmentError):
            dpc.process_response(wire)
        assert not dpc.slot_in_use(2)

    def test_failed_parse_applies_no_sets(self):
        # The parse is all-or-nothing: a template that fails validation
        # must not leave earlier SET payloads behind in the slot array.
        dpc = DynamicProxyCache(capacity=8)
        wire = "<~S:0001~>early<~E:0001~><~E:0005~>"
        with pytest.raises(TemplateError):
            dpc.process_response(wire)
        assert dpc.occupied_slots() == 0


class TestDpcKeyDigits:
    """dpcKeys are ASCII ``0-9`` only, in both decoders.

    ``str.isdigit`` also admits superscripts (which ``int`` rejects with a
    bare ``ValueError``) and other scripts' digits (which ``int`` reads as
    a different key), so neither may get past the tag decoder: not the
    serve path's scan, and not the reference parser.
    """

    @pytest.mark.parametrize("wire", ["<~G:000²~>", "<~G:١٢٣٤~>", "<~S:٠٠٠١~>x<~E:٠٠٠١~>"])
    @pytest.mark.parametrize("decode", [parse_template])
    def test_non_ascii_digits_are_a_malformed_key(self, wire, decode):
        with pytest.raises(TemplateError, match="malformed dpcKey"):
            decode(wire)

    @pytest.mark.parametrize("wire", ["<~G:000²~>", "<~G:١٢٣٤~>", "<~S:٠٠٠١~>x<~E:٠٠٠١~>"])
    def test_process_response_rejects_non_ascii_digits(self, wire):
        dpc = DynamicProxyCache(capacity=16)
        with pytest.raises(TemplateError, match="malformed dpcKey"):
            dpc.process_response(wire)
        assert dpc.occupied_slots() == 0


class TestHierarchy:
    def test_protocol_error_is_the_common_umbrella(self):
        for exc in (TemplateError, SlotError, AssemblyError, OversizedFragmentError):
            assert issubclass(exc, ProtocolError)
        assert issubclass(ProtocolError, ReproError)

    def test_escape_tag_unescapes_to_the_sentinel(self):
        template = parse_template("literal <~Q~> stays")
        assert template.instructions[0].text == "literal %s stays" % SENTINEL
