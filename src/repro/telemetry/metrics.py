"""The unified metrics registry: counters, gauges, histograms, providers.

Before this module, every subsystem kept a private ``Stats`` object and
:func:`repro.harness.monitoring.take_snapshot` hand-copied dozens of fields
into a flat list.  The :class:`MetricsRegistry` inverts that: components
*register themselves* — either as instruments (counters/gauges/histograms
created through the registry) or as *providers* (any object exposing
``metric_rows()``) — and ``collect()`` walks them all, yielding the same
``(dotted-name, value)`` rows the snapshot always rendered.

Instrument names are validated against the dotted scheme
(:mod:`repro.telemetry.naming`).  The one escape hatch is
:meth:`MetricsRegistry.record`, which appends a raw ad-hoc row with no
validation — it exists solely so exported snapshots can be reconstructed
into value-level registries (:func:`repro.telemetry.export.registry_from_rows`),
and the lint test under ``tests/telemetry`` rejects new uses of it inside
``src/``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .naming import validate_metric_name

Row = Tuple[str, object]

#: Default histogram bucket upper bounds, in seconds (latency-flavoured).
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ConfigurationError(
                "counter %r cannot decrease (inc by %r)" % (self.name, amount)
            )
        self.value += amount

    def rows(self) -> List[Row]:
        """This instrument's collected rows."""
        return [(self.name, self.value)]


class Gauge:
    """A named value that can go up and down, or track a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], object]] = None) -> None:
        self.name = name
        self._value: object = 0
        self._fn = fn

    def set(self, value: object) -> None:
        """Pin the gauge to an explicit value (clears any callback)."""
        self._fn = None
        self._value = value

    @property
    def value(self) -> object:
        """Current reading: the callback's return value, or the set value."""
        if self._fn is not None:
            return self._fn()
        return self._value

    def rows(self) -> List[Row]:
        """This instrument's collected rows."""
        return [(self.name, self.value)]


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    Buckets are cumulative-free (each observation lands in exactly one
    bucket: the first whose upper bound is >= the value; values beyond the
    last bound land in the overflow bucket).  ``collect()`` publishes three
    rows: ``<name>.count``, ``<name>.sum``, and ``<name>.buckets`` — the
    last a list of ``[upper_bound, count]`` pairs (``"inf"`` for overflow)
    so the whole distribution round-trips through the JSON-lines exporter.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ConfigurationError("histogram %r needs at least one bucket" % name)
        ordered = tuple(buckets)
        if list(ordered) != sorted(ordered):
            raise ConfigurationError(
                "histogram %r buckets must be ascending" % name
            )
        self.name = name
        self.buckets = ordered
        self.counts = [0] * len(ordered)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def bucket_rows(self) -> List[List[object]]:
        """``[upper_bound, count]`` pairs, overflow bound spelled ``"inf"``."""
        rows: List[List[object]] = [
            [bound, count] for bound, count in zip(self.buckets, self.counts)
        ]
        rows.append(["inf", self.overflow])
        return rows

    def rows(self) -> List[Row]:
        """This instrument's collected rows."""
        return [
            ("%s.count" % self.name, self.count),
            ("%s.sum" % self.name, self.total),
            ("%s.buckets" % self.name, self.bucket_rows()),
        ]


class MetricsRegistry:
    """Named instruments plus self-registering providers, one namespace.

    Collection order is deterministic: provider rows first (in registration
    order), then instrument rows (in creation order), then ad-hoc rows
    appended through the legacy :meth:`record` escape hatch.  That ordering
    is what keeps :func:`repro.harness.monitoring.take_snapshot` output
    byte-identical with its pre-registry incarnation.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._providers: List[Callable[[], Iterable[Row]]] = []
        self._adhoc: List[Row] = []

    # -- instruments --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        return self._instrument(name, Counter)

    def gauge(self, name: str, fn: Optional[Callable[[], object]] = None) -> Gauge:
        """Get or create the gauge under ``name`` (optionally callback-backed)."""
        gauge = self._instrument(name, Gauge)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the fixed-bucket histogram under ``name``."""
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ConfigurationError(
                    "metric %r already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        validate_metric_name(name)
        histogram = Histogram(name, buckets)
        self._instruments[name] = histogram
        return histogram

    def _instrument(self, name: str, klass):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, klass):
                raise ConfigurationError(
                    "metric %r already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        validate_metric_name(name)
        instrument = klass(name)
        self._instruments[name] = instrument
        return instrument

    # -- providers ----------------------------------------------------------

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

    # -- legacy escape hatch -------------------------------------------------

    def record(self, name: str, value: object) -> None:
        """Append one raw ad-hoc row (no name validation, duplicates kept).

        Exists only for reconstructing registries from exported rows
        (:func:`repro.telemetry.export.registry_from_rows`); new code should
        register instruments or providers under canonical dotted names.
        """
        self._adhoc.append((name, value))

    # -- collection ----------------------------------------------------------

    def collect(self) -> List[Row]:
        """Every current ``(name, value)`` row, in deterministic order."""
        rows: List[Row] = []
        for provider in self._providers:
            rows.extend(provider())
        for instrument in self._instruments.values():
            rows.extend(instrument.rows())
        rows.extend(self._adhoc)
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

    def __len__(self) -> int:
        return len(self.collect())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MetricsRegistry(%d instruments, %d providers, %d ad-hoc)" % (
            len(self._instruments), len(self._providers), len(self._adhoc)
        )
