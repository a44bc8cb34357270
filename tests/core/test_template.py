"""Tests for the template instruction language and its wire format."""

import pytest

from repro.core.template import (
    DEFAULT_CONFIG,
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.errors import ConfigurationError, TemplateError


class TestTemplateConfig:
    def test_default_tag_size_matches_table2(self):
        """key_width=4 gives a 10-byte tag: the paper's baseline g."""
        assert DEFAULT_CONFIG.tag_size == 10

    def test_max_key(self):
        assert DEFAULT_CONFIG.max_key == 9999
        assert TemplateConfig(key_width=2).max_key == 99

    def test_format_key_zero_pads(self):
        assert DEFAULT_CONFIG.format_key(42) == "0042"

    def test_format_key_range_checked(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_CONFIG.format_key(10000)
        with pytest.raises(ConfigurationError):
            DEFAULT_CONFIG.format_key(-1)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateConfig(key_width=0)


class TestSerialization:
    def test_get_tag_is_exactly_g_bytes(self):
        template = Template().get(42)
        assert template.wire_bytes() == DEFAULT_CONFIG.tag_size
        assert template.serialize() == "<~G:0042~>"

    def test_set_costs_two_tags_plus_content(self):
        """The analysis' miss cost: s + 2g."""
        content = "x" * 100
        template = Template().set(7, content)
        assert template.wire_bytes() == 100 + 2 * DEFAULT_CONFIG.tag_size

    def test_literal_passthrough(self):
        template = Template().literal("<p>hello</p>")
        assert template.serialize() == "<p>hello</p>"

    def test_sentinel_in_literal_is_escaped(self):
        template = Template().literal("a <~ b")
        wire = template.serialize()
        assert "<~Q~>" in wire
        assert parse_template(wire).instructions == [Literal("a <~ b")]

    def test_sentinel_in_set_content_is_escaped(self):
        template = Template().set(3, "tricky <~E:0003~> content")
        parsed = parse_template(template.serialize())
        assert parsed.instructions == [
            SetInstruction(3, "tricky <~E:0003~> content")
        ]

    def test_adjacent_literals_merge_on_roundtrip(self):
        template = Template().literal("a").literal("b").get(1).literal("c")
        parsed = parse_template(template.serialize())
        assert parsed.instructions == [
            Literal("ab"),
            GetInstruction(1),
            Literal("c"),
        ]

    def test_boundary_sentinel_across_literals(self):
        """Two literals whose join spells the sentinel must round-trip."""
        template = Template().literal("abc<").literal("~def")
        parsed = parse_template(template.serialize())
        assert parsed.instructions == [Literal("abc<~def")]


class TestParsing:
    def test_mixed_stream(self):
        template = (
            Template()
            .literal("<html>")
            .set(1, "frag-one")
            .literal("<hr>")
            .get(2)
            .literal("</html>")
        )
        parsed = parse_template(template.serialize())
        assert parsed == template.normalized()

    def test_empty_wire(self):
        assert parse_template("").instructions == []

    def test_unknown_tag_kind(self):
        with pytest.raises(TemplateError):
            parse_template("<~Z:0001~>")

    def test_malformed_key(self):
        with pytest.raises(TemplateError):
            parse_template("<~G:12~>")  # too short for key_width=4

    def test_unterminated_tag(self):
        with pytest.raises(TemplateError):
            parse_template("<~G:0001")

    def test_unterminated_set(self):
        with pytest.raises(TemplateError):
            parse_template("<~S:0001~>content without end")

    def test_end_without_set(self):
        with pytest.raises(TemplateError):
            parse_template("<~E:0001~>")

    def test_mismatched_set_end_keys(self):
        with pytest.raises(TemplateError):
            parse_template("<~S:0001~>abc<~E:0002~>")

    def test_nested_set_rejected(self):
        with pytest.raises(TemplateError):
            parse_template("<~S:0001~>a<~S:0002~>b<~E:0002~><~E:0001~>")

    def test_get_inside_set_rejected(self):
        with pytest.raises(TemplateError):
            parse_template("<~S:0001~>a<~G:0002~><~E:0001~>")

    def test_custom_key_width(self):
        config = TemplateConfig(key_width=2)
        template = Template(config=config).get(5)
        assert template.serialize() == "<~G:05~>"
        parsed = parse_template(template.serialize(), config)
        assert parsed.instructions == [GetInstruction(5)]


class TestInspection:
    def test_counts(self):
        template = Template().get(1).set(2, "x").get(3).literal("abc")
        assert template.get_count == 2
        assert template.set_count == 1

    def test_normalized_drops_empty_literals(self):
        template = Template().literal("").get(1).literal("")
        assert template.normalized().instructions == [GetInstruction(1)]

    def test_equality(self):
        assert Template().get(1) == Template().get(1)
        assert Template().get(1) != Template().get(2)

    def test_utf8_wire_bytes(self):
        template = Template().literal("héllo")
        assert template.wire_bytes() == 6
