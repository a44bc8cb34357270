"""Exporters: JSON-lines round trips, aligned tables, span trees."""

import json

import pytest

from repro.core.fragments import FragmentID
from repro.harness.reporting import format_table
from repro.network.clock import SimulatedClock
from repro.telemetry import export
from repro.telemetry.export import (
    parse_json_lines,
    registry_from_rows,
    render_metrics,
    render_span_tree,
    span_from_dict,
    span_to_dict,
    spans_from_json_lines,
    spans_to_json_lines,
    to_json_lines,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.tracing import Tracer


def sample_rows():
    registry = MetricsRegistry()
    registry.counter("bem.fragment_hits").inc(12)
    registry.gauge("dpc.slots_occupied").set(5)
    histogram = registry.histogram("db.wait_s", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(3.0)
    return registry.collect()


class TestJsonLines:
    def test_round_trip_is_byte_identical(self):
        rows = sample_rows()
        text = to_json_lines(rows)
        parsed = parse_json_lines(text)
        assert to_json_lines(parsed) == text

    def test_round_trip_preserves_values(self):
        parsed = dict(parse_json_lines(to_json_lines(sample_rows())))
        assert parsed["bem.fragment_hits"] == 12
        assert parsed["db.wait_s.count"] == 2
        assert parsed["db.wait_s.buckets"] == [[0.1, 1], [1.0, 0], ["inf", 1]]

    def test_one_valid_json_object_per_line(self):
        for line in to_json_lines(sample_rows()).splitlines():
            record = json.loads(line)
            assert set(record) == {"name", "value"}

    def test_blank_lines_skipped(self):
        rows = parse_json_lines('\n{"name": "a.b", "value": 1}\n\n')
        assert rows == [("a.b", 1)]

    def test_registry_from_rows_replays_verbatim(self):
        rows = sample_rows()
        assert registry_from_rows(rows).collect() == rows


class TestRenderMetrics:
    def test_matches_harness_format_table(self):
        """One renderer: the harness's table helper is telemetry's, and the
        metrics table is its two-column form."""
        rows = sample_rows()
        assert format_table is export.format_table
        assert render_metrics(rows) == format_table(["metric", "value"], rows)

    def test_title_prepended(self):
        text = render_metrics([("a.b", 1)], title="Snapshot")
        assert text.splitlines()[0] == "Snapshot"

    def test_empty_rows_still_render_headers(self):
        lines = render_metrics([]).splitlines()
        assert lines[0].startswith("metric")
        assert set(lines[1]) <= {"-", " "}


def build_trace():
    clock = SimulatedClock()
    tracer = Tracer(clock, enabled=True)
    with tracer.span("request", url="/page.jsp") as root:
        with tracer.span("bem.process"):
            clock.advance(0.010)
        with tracer.span("dpc.assemble") as assemble:
            assemble.set_status("failed")
            clock.advance(0.002)
    return root


class TestSpanExport:
    def test_span_to_dict_shape(self):
        record = span_to_dict(build_trace())
        assert record["name"] == "request"
        assert record["duration"] == pytest.approx(0.012)
        assert record["meta"] == {"url": "/page.jsp"}
        children = record["children"]
        assert [c["name"] for c in children] == ["bem.process", "dpc.assemble"]
        assert children[1]["status"] == "failed"
        assert "meta" not in children[0]

    def test_spans_to_json_lines_one_trace_per_line(self):
        roots = [build_trace(), build_trace()]
        lines = spans_to_json_lines(roots).splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "request"

    def test_render_span_tree(self):
        text = render_span_tree(build_trace())
        lines = text.splitlines()
        assert lines[0] == "request  12.000ms  url=/page.jsp"
        assert lines[1] == "  bem.process  10.000ms"
        assert lines[2] == "  dpc.assemble  2.000ms  status=failed"

    def test_render_span_tree_custom_indent(self):
        text = render_span_tree(build_trace(), indent="....")
        assert text.splitlines()[1].startswith("....bem.process")


class TestSpanRoundTrip:
    """span_from_dict / spans_from_json_lines invert the export exactly."""

    def test_span_from_dict_inverts_to_dict(self):
        record = span_to_dict(build_trace())
        rebuilt = span_from_dict(record)
        assert span_to_dict(rebuilt) == record

    def test_rebuilt_tree_matches_structure(self):
        root = build_trace()
        rebuilt = span_from_dict(span_to_dict(root))
        assert [s.name for s in rebuilt.walk()] == [s.name for s in root.walk()]
        assert rebuilt.duration == pytest.approx(root.duration)
        assert rebuilt.children[1].status == "failed"
        assert rebuilt.meta == {"url": "/page.jsp"}

    def test_json_lines_round_trip(self):
        roots = [build_trace(), build_trace()]
        text = spans_to_json_lines(roots)
        rebuilt = spans_from_json_lines(text)
        assert len(rebuilt) == 2
        assert spans_to_json_lines(rebuilt) == text

    def test_json_lines_skips_blank_lines(self):
        text = spans_to_json_lines([build_trace()])
        rebuilt = spans_from_json_lines("\n" + text + "\n\n")
        assert len(rebuilt) == 1

    def test_root_annotations_survive_the_round_trip(self):
        """The exporter gap this PR closes: root meta is carried and parsed."""
        clock = SimulatedClock()
        tracer = Tracer(clock, enabled=True)
        with tracer.span("request", url="/p.jsp", predicted_hit=True) as root:
            clock.advance(0.001)
        rebuilt = spans_from_json_lines(spans_to_json_lines([root]))[0]
        assert rebuilt.meta == {"url": "/p.jsp", "predicted_hit": True}

    def test_non_json_safe_meta_is_coerced_not_fatal(self):
        clock = SimulatedClock()
        tracer = Tracer(clock, enabled=True)
        with tracer.span("request", frag=FragmentID.create("frag", {"id": 3}),
                         depth=(1, 2)) as root:
            clock.advance(0.001)
        text = spans_to_json_lines([root])  # must not raise
        rebuilt = spans_from_json_lines(text)[0]
        assert rebuilt.meta["frag"] == str(FragmentID.create("frag", {"id": 3}))
        assert rebuilt.meta["depth"] == [1, 2]
        # A second export of the parsed tree is now a fixed point.
        assert spans_to_json_lines([rebuilt]) == text
