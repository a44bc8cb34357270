"""The unified metrics registry: one namespace of self-registering providers.

Components *register themselves* as providers (any object exposing
``metric_rows()``, or a callable returning rows) and ``collect()`` walks
them all, yielding ``(dotted-name, value)`` rows;
:func:`repro.harness.monitoring.take_snapshot` is a view over it.  The
rows' names follow the dotted scheme of :mod:`repro.telemetry.naming`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from ..errors import ConfigurationError

Row = Tuple[str, object]


class MetricsRegistry:
    """Self-registering row providers, one namespace.

    Collection order is deterministic: provider rows in registration
    order.  That ordering is what keeps
    :func:`repro.harness.monitoring.take_snapshot` output byte-identical
    with its pre-registry incarnation.
    """

    def __init__(self) -> None:
        self._providers: List[Callable[[], Iterable[Row]]] = []

    def register_provider(self, provider) -> None:
        """Register a row source consulted on every :meth:`collect`.

        ``provider`` may be a callable returning ``(name, value)`` rows, or
        any object exposing ``metric_rows()``.
        """
        fn = self._resolve_provider(provider)
        self._providers.append(fn)

    @staticmethod
    def _resolve_provider(provider) -> Callable[[], Iterable[Row]]:
        rows_fn = getattr(provider, "metric_rows", None)
        if rows_fn is not None:
            return rows_fn
        if callable(provider):
            return provider
        raise ConfigurationError(
            "provider %r has no metric_rows() and is not callable" % (provider,)
        )

    def collect(self) -> List[Row]:
        """Every current ``(name, value)`` row, in deterministic order."""
        rows: List[Row] = []
        for provider in self._providers:
            rows.extend(provider())
        return rows

    def names(self) -> List[str]:
        """All row names, in collection order."""
        return [name for name, _ in self.collect()]

    def get(self, name: str) -> object:
        """First row value under ``name``; raises KeyError if absent."""
        for row_name, value in self.collect():
            if row_name == name:
                return value
        raise KeyError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MetricsRegistry(%d providers)" % len(self._providers)
