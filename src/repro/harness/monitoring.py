"""Operational monitoring: one snapshot across a whole deployment.

Production caches live or die by their observability.  Historically this
module hand-copied every counter a component kept into an ad-hoc row list;
it is now a thin view over :class:`repro.telemetry.MetricsRegistry`.  Each
component publishes its own ``metric_rows()`` provider and
:func:`take_snapshot` simply registers whichever components are given and
collects — same rows, same order, same rendering, but one naming scheme
(:data:`repro.telemetry.METRIC_NAMES`) and no duplicated bookkeeping.

:class:`DeploymentSnapshot` survives as a read-only facade over the
registry (``get``/``names``/``render``/``rows``).  The deprecated ``add``
method and the ``objects.memoized`` → ``bem.objects.memoized`` resolution
alias completed their deprecation cycle and were removed; use
:meth:`~repro.telemetry.MetricsRegistry.record` and the canonical name.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..network.firewall import Firewall
from ..network.sniffer import Sniffer
from ..telemetry.export import render_metrics
from ..telemetry.metrics import MetricsRegistry


class DeploymentSnapshot:
    """Point-in-time health view of one BEM/DPC deployment.

    A read-only facade over :class:`repro.telemetry.MetricsRegistry`.  New
    code should use the registry directly (``registry.collect()`` /
    :func:`repro.telemetry.render_metrics`); the facade remains because
    ``snapshot.get(name)`` / ``snapshot.render()`` is the idiom every
    harness script and doc example uses.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    @property
    def rows(self) -> List[Tuple[str, object]]:
        """Every metric row, in provider registration order."""
        return self.registry.collect()

    def get(self, name: str) -> object:
        """Look up a metric by canonical name; raises KeyError if absent."""
        for row_name, value in self.registry.collect():
            if row_name == name:
                return value
        raise KeyError(name)

    def names(self) -> List[str]:
        """All metric names, in collection order."""
        return [name for name, _ in self.registry.collect()]

    def render(self) -> str:
        """ASCII table of every collected metric."""
        return render_metrics(self.rows)


def take_snapshot(
    bem: Optional[BackEndMonitor] = None,
    dpc: Optional[DynamicProxyCache] = None,
    firewall: Optional[Firewall] = None,
    sniffer: Optional[Sniffer] = None,
    recovery=None,
    overload=None,
    channel=None,
    db=None,
    breaker=None,
    tracer=None,
    insight=None,
    slo=None,
    registry: Optional[MetricsRegistry] = None,
) -> DeploymentSnapshot:
    """Collect the current counters of whichever components are given.

    A thin view over :class:`repro.telemetry.MetricsRegistry`: each non-None
    component is registered as a row provider (they all expose
    ``metric_rows()``) and the returned :class:`DeploymentSnapshot` reads
    straight from ``registry.collect()``.  ``recovery``, ``overload``,
    ``db``, ``breaker``, ``tracer``, ``insight`` and ``slo`` are duck-typed
    so this module stays import-independent of those subsystems; ``breaker``
    may be a :class:`repro.overload.breaker.CircuitBreaker` (its ``stats``
    carries the rows) or the stats object itself; ``insight`` is a
    :class:`repro.insight.InsightLayer` and ``slo`` a
    :class:`repro.insight.SloEngine`.  Pass ``registry`` to accumulate into
    an existing registry instead of a fresh one.
    """
    reg = registry if registry is not None else MetricsRegistry()
    if breaker is not None:
        breaker = getattr(breaker, "stats", breaker)
    for component in (
        bem, dpc, firewall, sniffer, recovery, overload, channel,
        db, breaker, tracer, insight, slo,
    ):
        if component is not None:
            reg.register_provider(component)
    return DeploymentSnapshot(registry=reg)
