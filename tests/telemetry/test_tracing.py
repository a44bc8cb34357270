"""Tracer lifecycle, nesting, and tree invariants."""

import pytest

from repro.appserver import HttpRequest
from repro.errors import ConfigurationError
from repro.network.clock import SimulatedClock
from repro.telemetry.tracing import (
    NULL_SCOPE,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    assert_gap_free,
    assert_well_formed,
)


@pytest.fixture
def tracer(clock):
    return Tracer(clock, enabled=True)


class TestDisabledTracer:
    def test_span_returns_the_shared_null_scope(self):
        tracer = Tracer()
        assert tracer.span("request") is NULL_SCOPE
        assert tracer.span("bem.process", path="/x") is NULL_SCOPE

    def test_null_scope_yields_the_shared_null_span(self):
        with Tracer().span("request") as span:
            assert span is NULL_SPAN
            assert span.annotate(mode="dpc") is NULL_SPAN
            assert span.meta == {}

    def test_nothing_is_recorded(self, clock):
        tracer = Tracer(clock)
        with tracer.span("request"):
            clock.advance(1.0)
        assert tracer.spans_opened == 0
        assert tracer.traces_completed == 0
        assert tracer.last_root is None

    def test_enabled_requires_a_clock(self):
        with pytest.raises(ConfigurationError):
            Tracer(clock=None, enabled=True)

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER._enabled
        assert NULL_TRACER.span("anything") is NULL_SCOPE


class TestSpanTree:
    def test_nested_spans_measure_virtual_time(self, clock, tracer):
        with tracer.span("request") as root:
            with tracer.span("bem.process") as inner:
                clock.advance(0.5)
            with tracer.span("dpc.assemble"):
                clock.advance(0.25)
        assert root.duration == pytest.approx(0.75)
        assert inner.duration == pytest.approx(0.5)
        assert [child.name for child in root.children] == [
            "bem.process", "dpc.assemble",
        ]
        assert root.closed and inner.closed
        assert_gap_free(root)

    def test_meta_kwargs_land_on_the_span(self, tracer):
        with tracer.span("channel.transfer", channel="origin", kind="request") as span:
            pass
        assert span.meta == {"channel": "origin", "kind": "request"}
        span.annotate(bytes=128)
        assert span.meta["bytes"] == 128

    def test_children_share_the_trace_id(self, clock, tracer):
        with tracer.span("request") as root:
            with tracer.span("bem.process") as child:
                pass
        assert child.trace_id == root.trace_id
        with tracer.span("request") as second:
            pass
        assert second.trace_id != root.trace_id

    def test_exception_sets_status_and_closes(self, clock, tracer):
        with pytest.raises(ValueError):
            with tracer.span("request") as root:
                with tracer.span("script.exec") as inner:
                    clock.advance(0.1)
                    raise ValueError("boom")
        assert inner.status == "ValueError"
        assert root.status == "ValueError"
        assert root.closed and inner.closed
        assert tracer.traces_completed == 1

    def test_explicit_status_survives_an_exception(self, clock, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("channel.transfer") as span:
                span.status = "dropped"
                raise RuntimeError("link down")
        assert span.status == "dropped"

    def test_walk_find_count(self, clock, tracer):
        with tracer.span("request") as root:
            with tracer.span("bem.process"):
                with tracer.span("script.exec"):
                    clock.advance(0.1)
            with tracer.span("dpc.assemble"):
                pass
        assert [s.name for s in root.walk()] == [
            "request", "bem.process", "script.exec", "dpc.assemble",
        ]
        assert root.find("script.exec").duration == pytest.approx(0.1)
        assert root.find("nope") is None
        assert root.count() == 4
        assert root.count("dpc.assemble") == 1

    def test_completed_roots_are_retained_bounded(self, clock):
        tracer = Tracer(clock, enabled=True, max_traces=2)
        for i in range(5):
            with tracer.span("request", index=i):
                clock.advance(0.01)
        assert tracer.traces_completed == 5
        assert len(tracer.traces) == 2
        assert [t.meta["index"] for t in tracer.traces] == [3, 4]
        assert tracer.last_root.meta["index"] == 4

    def test_annotate_last(self, clock, tracer):
        with tracer.span("request"):
            clock.advance(0.2)
        tracer.annotate_last(elapsed_s=0.2)
        assert tracer.last_root.meta["elapsed_s"] == 0.2


class TestRequestSpan:
    def test_request_span_roots_with_url(self, clock, tracer):
        request = HttpRequest("/page.jsp", {"pageID": "1"})
        with tracer.request_span(request, mode="dpc") as root:
            clock.advance(0.1)
        assert root.name == "request"
        assert root.meta["url"] == request.url
        assert root.meta["mode"] == "dpc"

    def test_request_span_never_nests(self, clock, tracer):
        request = HttpRequest("/page.jsp")
        with tracer.request_span(request) as outer:
            inner_scope = tracer.request_span(request, harness="overload")
            assert inner_scope is NULL_SCOPE
        assert outer.count("request") == 1

    def test_metric_rows(self, clock, tracer):
        with tracer.span("request"):
            with tracer.span("bem.process"):
                pass
        assert tracer.metric_rows() == [
            ("trace.spans_opened", 2),
            ("trace.traces_completed", 1),
        ]


class TestTreeInvariants:
    def build(self, spans):
        """Build a hand-rolled root with children [(start, end), ...]."""
        root = Span("request", "t0", spans[0][0])
        root.end = spans[-1][1]
        for start, end in spans:
            child = Span("stage", "t0", start)
            child.end = end
            root.children.append(child)
        return root

    def test_gap_free_accepts_exact_tiling(self):
        root = self.build([(0.0, 0.4), (0.4, 1.0)])
        assert_gap_free(root)

    def test_gap_free_rejects_a_gap(self):
        root = self.build([(0.0, 0.4), (0.6, 1.0)])
        assert_well_formed(root)  # ordered and nested, but gappy
        with pytest.raises(AssertionError):
            assert_gap_free(root)

    def test_well_formed_rejects_open_spans(self):
        root = Span("request", "t0", 0.0)
        with pytest.raises(AssertionError):
            assert_well_formed(root)

    def test_well_formed_rejects_overlapping_siblings(self):
        root = self.build([(0.0, 0.6), (0.5, 1.0)])
        with pytest.raises(AssertionError):
            assert_well_formed(root)

    def test_well_formed_rejects_child_outliving_parent(self):
        root = self.build([(0.0, 1.5)])
        root.end = 1.0
        with pytest.raises(AssertionError):
            assert_well_formed(root)


def tree(span):
    return (
        span.name, span.status, span.start, span.end, dict(span.meta),
        [tree(child) for child in span.children],
    )


class TestAdvanceLeaf:
    def test_same_tree_as_a_span_around_the_advance(self):
        trees = []
        for leaf in (False, True):
            clock = SimulatedClock()
            tracer = Tracer(clock, enabled=True)
            with tracer.span("request") as root:
                clock.advance(0.125)
                if leaf:
                    now = tracer.advance("firewall.scan", 0.5, direction="request")
                else:
                    with tracer.span("firewall.scan", direction="request"):
                        now = clock.advance(0.5)
            assert now == clock.now() == 0.625
            assert tracer.spans_opened == 2
            assert_well_formed(root)
            trees.append(tree(root))
        assert trees[0] == trees[1]

    def test_without_an_open_trace_the_leaf_is_a_root(self, clock, tracer):
        tracer.advance("firewall.scan", 0.5)
        root = tracer.last_root
        assert root.name == "firewall.scan"
        assert (root.start, root.end) == (0.0, 0.5)
        assert tracer.traces_completed == 1

    def test_disabled_tracer_only_advances_the_clock(self, clock):
        tracer = Tracer(clock)
        assert tracer.advance("firewall.scan", 0.5, direction="request") == 0.5
        assert tracer.spans_opened == 0

    def test_a_failed_advance_closes_the_leaf_with_its_error(self, clock, tracer):
        with pytest.raises(ConfigurationError):
            with tracer.span("request") as root:
                tracer.advance("firewall.scan", -1.0)
        (leaf,) = root.children
        assert leaf.status == "ConfigurationError" and leaf.closed
        assert tracer._stack == []
