"""Cache insight: miss-cause attribution, counterfactual curves, SLOs.

The diagnosis layer the paper's operators would have needed.  Four pieces,
each usable alone, bundled by :class:`InsightLayer` for attachment to a
live deployment:

* :mod:`~repro.insight.ledger` — a miss-cause **lifecycle ledger**: every
  directory miss is attributed to exactly one cause (``cold``,
  ``ttl_expired``, ``data_invalidated``, ``evicted_capacity``,
  ``shed_overload``, ``fault_quarantine``) with the invariant that the
  cause counts sum to the observed misses — no "other" bucket.
* :mod:`~repro.insight.mattson` — a single-pass **reuse-distance
  profiler** producing the exact counterfactual hit-ratio-vs-``num_slots``
  curve for the LRU directory without re-running the workload, answering
  "would more DPC slots have helped?".
* :mod:`~repro.insight.slo` — declarative **SLOs with multi-window
  burn-rate alerting** on the virtual clock, fed from existing metric
  streams, firing typed alerts.
* :mod:`~repro.insight.doctor` — ``python -m repro doctor``, which runs a
  deliberately pathological deployment and renders a diagnosis report
  (top miss causes, slot-count recommendation, firing SLOs, per-span-kind
  latency attribution).

Attachment is duck-typed (``bem.attach_insight(layer)``), mirroring the
degrader hook, so ``repro.core`` never imports this package and unattached
deployments pay one ``is None`` check per lookup.  The measured overhead
of a full attachment is gated under 5% by
``python benchmarks/bench_micro.py --smoke``.
"""

from .layer import CONTENT_INVALIDATION_REASONS, InsightLayer
from .ledger import MISS_CAUSES, MissCauseLedger
from .mattson import ReuseDistanceProfiler, simulate_lru
from .slo import SloAlert, SloEngine, SloObjective

__all__ = [
    # layer
    "CONTENT_INVALIDATION_REASONS",
    "InsightLayer",
    # ledger
    "MISS_CAUSES",
    "MissCauseLedger",
    # mattson
    "ReuseDistanceProfiler",
    "simulate_lru",
    # slo
    "SloAlert",
    "SloEngine",
    "SloObjective",
]
