"""Declarative SLOs with multi-window burn-rate alerting on virtual time.

An :class:`SloObjective` states a service-level objective over an existing
sample stream — "95% of virtual response times stay under 2 s", "the
fragment hit ratio stays above 0.6", "fewer than 1 request in 100 is
dropped" — and the :class:`SloEngine` evaluates it the way production SRE
practice does (the Google SRE workbook's multi-window, multi-burn-rate
recipe):

* every sample is classified good/bad against the objective's per-sample
  threshold; the **error budget** is ``1 - compliance_target``;
* the **burn rate** over a window is ``bad_fraction / budget`` — 1.0 means
  the budget is being consumed exactly at the sustainable rate;
* an alert fires only when **both** a long window and a short window burn
  above the threshold: the long window supplies significance (one slow
  request cannot page), the short window supplies recency (the alert
  clears quickly once the system recovers).

Windows are measured on the **virtual clock** — the same simulated seconds
every harness advances — so runs are deterministic and alert timestamps
line up with span trees and bucket series.  Fired alerts are typed
(:class:`SloAlert`).

Percentile objectives need no special machinery: "p95 latency ≤ T" is
exactly "at least 95% of per-request samples are ≤ T", i.e. a per-sample
threshold of ``T`` with ``compliance_target=0.95``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..telemetry.naming import validate_metric_name

#: Comparators an objective may use against each sample.
COMPARATORS = ("<=", ">=")


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective over a named sample stream."""

    #: Objective name (dotted scheme, e.g. ``slo.latency_p95``).
    name: str
    #: Sample stream it watches (an existing metric name, e.g.
    #: ``bem.hit_ratio`` fed per access, or ``request.elapsed_s`` per page).
    metric: str
    #: Per-sample goodness test: ``sample <comparator> threshold``.
    comparator: str
    threshold: float
    #: Required good fraction (0.95 encodes a p95 objective directly).
    compliance_target: float = 0.99
    #: Multi-window evaluation (virtual seconds).
    long_window_s: float = 60.0
    short_window_s: float = 5.0
    #: Burn rate both windows must exceed to fire.
    burn_threshold: float = 2.0
    #: Significance floor: no verdict until the long window holds this many.
    min_samples: int = 20

    def __post_init__(self) -> None:
        validate_metric_name(self.name)
        validate_metric_name(self.metric)
        if self.comparator not in COMPARATORS:
            raise ConfigurationError(
                "comparator must be one of %s" % (COMPARATORS,)
            )
        if not 0.0 < self.compliance_target < 1.0:
            raise ConfigurationError("compliance_target must be in (0, 1)")
        if self.short_window_s <= 0 or self.long_window_s < self.short_window_s:
            raise ConfigurationError(
                "windows must satisfy 0 < short_window_s <= long_window_s"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be positive")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be at least 1")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction."""
        return 1.0 - self.compliance_target

    def good(self, value: float) -> bool:
        """Classify one sample against the per-sample threshold."""
        if self.comparator == "<=":
            return value <= self.threshold
        return value >= self.threshold


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert, typed and timestamped on the virtual clock."""

    objective: str
    metric: str
    fired_at: float          # virtual seconds
    burn_long: float
    burn_short: float
    long_window_s: float
    short_window_s: float
    burn_threshold: float
    compliance_target: float


@dataclass
class _ObjectiveState:
    """Windowed samples plus the firing latch for one objective."""

    objective: SloObjective
    samples: Deque[Tuple[float, bool]] = field(default_factory=deque)
    active: bool = False
    observed: int = 0
    bad: int = 0


class SloEngine:
    """Evaluates a set of objectives over observed samples."""

    def __init__(self, objectives: List[SloObjective]) -> None:
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError("objective names must be unique")
        self._states: List[_ObjectiveState] = [
            _ObjectiveState(objective=objective) for objective in objectives
        ]
        self._by_metric: Dict[str, List[_ObjectiveState]] = {}
        for state in self._states:
            self._by_metric.setdefault(state.objective.metric, []).append(state)
        self.alerts: List[SloAlert] = []

    @property
    def objectives(self) -> List[SloObjective]:
        """The declared objectives, in declaration order."""
        return [state.objective for state in self._states]

    # -- feeding ------------------------------------------------------------

    def observe(self, metric: str, value: float, now: float) -> None:
        """One sample on stream ``metric`` at virtual time ``now``."""
        states = self._by_metric.get(metric)
        if not states:
            return
        for state in states:
            objective = state.objective
            good = objective.good(value)
            state.samples.append((now, good))
            state.observed += 1
            if not good:
                state.bad += 1
            self._prune(state, now)
            self._evaluate(state, now)

    # -- evaluation ---------------------------------------------------------

    def _prune(self, state: _ObjectiveState, now: float) -> None:
        horizon = now - state.objective.long_window_s
        samples = state.samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    def burn_rates(
        self, name: str, now: float
    ) -> Tuple[Optional[float], Optional[float]]:
        """Current (long, short) burn rates; ``None`` below ``min_samples``."""
        state = self._state(name)
        self._prune(state, now)
        return (
            self._burn(state, now, state.objective.long_window_s),
            self._burn(state, now, state.objective.short_window_s),
        )

    def _burn(
        self, state: _ObjectiveState, now: float, window_s: float
    ) -> Optional[float]:
        horizon = now - window_s
        total = bad = 0
        for at, good in reversed(state.samples):
            if at < horizon:
                break
            total += 1
            if not good:
                bad += 1
        if total < state.objective.min_samples:
            return None
        return (bad / total) / state.objective.budget

    def _evaluate(self, state: _ObjectiveState, now: float) -> None:
        objective = state.objective
        long_burn = self._burn(state, now, objective.long_window_s)
        short_burn = self._burn(state, now, objective.short_window_s)
        if long_burn is None or short_burn is None:
            return
        firing = (
            long_burn >= objective.burn_threshold
            and short_burn >= objective.burn_threshold
        )
        if firing and not state.active:
            state.active = True
            self.alerts.append(
                SloAlert(
                    objective=objective.name,
                    metric=objective.metric,
                    fired_at=now,
                    burn_long=round(long_burn, 4),
                    burn_short=round(short_burn, 4),
                    long_window_s=objective.long_window_s,
                    short_window_s=objective.short_window_s,
                    burn_threshold=objective.burn_threshold,
                    compliance_target=objective.compliance_target,
                )
            )
        elif not firing and state.active and (
            long_burn < objective.burn_threshold
            and short_burn < objective.burn_threshold
        ):
            # Recovery: both windows back under threshold re-arms the latch
            # (one sustained violation == one alert, not one per sample).
            state.active = False

    def _state(self, name: str) -> _ObjectiveState:
        for state in self._states:
            if state.objective.name == name:
                return state
        raise KeyError(name)

    # -- reading ------------------------------------------------------------

    def active_alerts(self) -> List[str]:
        """Names of objectives currently latched firing."""
        return [
            state.objective.name for state in self._states if state.active
        ]

    def compliance(self, name: str) -> float:
        """Lifetime good fraction for one objective (1.0 on no samples)."""
        state = self._state(name)
        if state.observed == 0:
            return 1.0
        return (state.observed - state.bad) / state.observed

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows under ``slo.*``."""
        return [
            ("slo.objectives", len(self._states)),
            ("slo.samples", sum(state.observed for state in self._states)),
            ("slo.alerts_fired", len(self.alerts)),
            ("slo.alerts_active", sum(1 for s in self._states if s.active)),
        ]

