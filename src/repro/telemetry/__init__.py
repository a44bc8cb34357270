"""Telemetry: virtual-time request tracing and the unified metrics registry.

The observability layer for the whole reproduction.  Three pieces:

* :mod:`~repro.telemetry.tracing` — a :class:`Tracer` that opens
  per-request span trees on the *simulated* clock (``request →
  channel.transfer → bem.process → script.exec → db.query → …``).  Each
  component holds the deployment's tracer and records its spans into the
  open tree.  Disabled tracing is zero-cost; enabled tracing yields
  gap-free trees whose root duration equals the measured virtual response
  time.
* :mod:`~repro.telemetry.metrics` — a :class:`MetricsRegistry` of row
  providers under one dotted-name scheme (:data:`METRIC_NAMES`):
  components register themselves instead of being scraped by hand.
* :mod:`~repro.telemetry.export` — the aligned-text metrics table and the
  span-tree pretty-printer.

Quick taste::

    from repro.harness.testbed import Testbed, TestbedConfig
    from repro.telemetry import render_span_tree

    testbed = Testbed(TestbedConfig(mode="dpc", tracing=True))
    timed = testbed.build_workload().materialize(1)[0]
    testbed.serve_once(timed.request)
    print(render_span_tree(testbed.tracer.last_root))
"""

from .metrics import MetricsRegistry, Row
from .naming import (
    METRIC_NAMES,
    valid_metric_name,
    validate_metric_name,
)
from .tracing import (
    NULL_TRACER,
    Span,
    Tracer,
    assert_gap_free,
    assert_well_formed,
)
from .export import render_metrics, render_span_tree
from .stats import percentile

__all__ = [
    # metrics
    "MetricsRegistry",
    "Row",
    # naming
    "METRIC_NAMES",
    "valid_metric_name",
    "validate_metric_name",
    # tracing
    "NULL_TRACER",
    "Span",
    "Tracer",
    "assert_gap_free",
    "assert_well_formed",
    # export
    "render_metrics",
    "render_span_tree",
    # stats
    "percentile",
]
