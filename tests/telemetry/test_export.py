"""Exporters: aligned tables and span trees."""

from repro.harness.reporting import format_table
from repro.network.clock import SimulatedClock
from repro.telemetry import export
from repro.telemetry.export import render_metrics, render_span_tree
from repro.telemetry.tracing import Tracer


def sample_rows():
    return [
        ("bem.fragment_hits", 12),
        ("dpc.slots_occupied", 5),
        ("db.wait_s", 0.05),
        ("dpc.online", True),
    ]


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
            assemble.status = "failed"
            clock.advance(0.002)
    return root


class TestSpanExport:
    def test_render_span_tree(self):
        text = render_span_tree(build_trace())
        lines = text.splitlines()
        assert lines[0] == "request  12.000ms  url=/page.jsp"
        assert lines[1] == "  bem.process  10.000ms"
        assert lines[2] == "  dpc.assemble  2.000ms  status=failed"

    def test_render_span_tree_custom_indent(self):
        text = render_span_tree(build_trace(), indent="....")
        assert text.splitlines()[1].startswith("....bem.process")
