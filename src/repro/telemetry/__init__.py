"""Telemetry: virtual-time request tracing and the unified metrics registry.

The observability layer for the whole reproduction.  Three pieces:

* :mod:`~repro.telemetry.tracing` — a :class:`Tracer` that opens
  per-request span trees on the *simulated* clock (``request →
  channel.transfer → bem.process → script.exec → db.query → …``),
  propagated via ``HttpRequest.trace`` / ``WireMessage.trace``.  Disabled
  tracing is zero-cost; enabled tracing yields gap-free trees whose root
  duration equals the measured virtual response time.
* :mod:`~repro.telemetry.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges, and fixed-bucket histograms under one dotted-name
  scheme (:data:`METRIC_NAMES`); components register themselves as row
  providers instead of being scraped by hand.
* :mod:`~repro.telemetry.export` — JSON-lines and aligned-text exporters
  plus the span-tree pretty-printer.

Quick taste::

    from repro.harness.testbed import Testbed, TestbedConfig
    from repro.telemetry import render_span_tree

    testbed = Testbed(TestbedConfig(mode="dpc", tracing=True))
    timed = testbed.build_workload().materialize(1)[0]
    testbed.serve_once(timed.request)
    print(render_span_tree(testbed.tracer.last_root))
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    Row,
)
from .naming import (
    METRIC_NAMES,
    valid_metric_name,
    validate_metric_name,
)
from .tracing import (
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
    assert_gap_free,
    assert_well_formed,
)
from .export import (
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
from .stats import mean, percentile, summarize

__all__ = [
    # metrics
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Row",
    # naming
    "METRIC_NAMES",
    "valid_metric_name",
    "validate_metric_name",
    # tracing
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "Tracer",
    "assert_gap_free",
    "assert_well_formed",
    # export
    "parse_json_lines",
    "registry_from_rows",
    "render_metrics",
    "render_span_tree",
    "span_from_dict",
    "span_to_dict",
    "spans_from_json_lines",
    "spans_to_json_lines",
    "to_json_lines",
    # stats
    "mean",
    "percentile",
    "summarize",
]
