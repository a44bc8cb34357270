"""Virtual-time request tracing: explain any served page span by span.

A :class:`Tracer` opens a per-request tree of :class:`Span` objects on the
*simulated* clock — the same clock every component advances — so a span's
duration is exactly the virtual time its stage consumed::

    request (url=/page.jsp mode=dpc outcome=fresh)
      firewall.scan
      channel.transfer
      bem.process
        script.exec
          script.compute
          db.query
        queue.wait (app-server)
        queue.wait (db-pool)
      channel.transfer
      firewall.scan
      dpc.assemble

The request path arranges every clock advance to happen inside a leaf
span, which gives the tree its load-bearing invariant (checked by
:func:`assert_gap_free`): **each span's children tile it exactly**, so the
root's duration equals the measured virtual response time and no byte of
latency is unattributed.  Shed, stale, and timed-out outcomes from
:mod:`repro.overload` and recovery epochs from :mod:`repro.faults` are
annotated onto the same trees.

Tracing is **zero-cost when disabled**: ``Tracer.span()`` on a disabled
tracer returns one shared no-op context manager and allocates nothing.
Trace context propagates across component boundaries on
``HttpRequest.trace`` / ``WireMessage.trace`` as a :class:`TraceContext`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

#: Duration comparisons tolerate this much floating-point slack (seconds).
EPSILON = 1e-9


class Span:
    """One stage of one request, measured on the virtual clock.

    A span is its own context manager (``with tracer.span(...) as span:``);
    exiting closes it against the tracer's clock.  The class is built for
    the hot path — one allocation per stage, no wrapper scope object — so
    enabled tracing stays within the documented overhead bound.
    """

    __slots__ = ("name", "trace_id", "start", "end", "status", "meta",
                 "children", "_tracer")

    def __init__(self, name: str, trace_id: str, start: float,
                 meta: Optional[dict] = None,
                 tracer: Optional["Tracer"] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.meta: dict = {} if meta is None else meta
        self.children: List["Span"] = []
        self._tracer = tracer

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.status == "ok":
            self.status = exc_type.__name__
        tracer = self._tracer
        if tracer is None or not tracer._enabled:
            return False
        self.end = tracer._now()
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive
            while stack and stack[-1] is not self:
                stack.pop()
            stack.pop()
        if not stack:
            # Root closed: the trace is complete.
            tracer.traces.append(self)
            tracer.last_root = self
            tracer.traces_completed += 1
        return False

    @property
    def closed(self) -> bool:
        """Whether the span has finished."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Virtual seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **meta: object) -> "Span":
        """Attach free-form key/value metadata; returns self for chaining."""
        self.meta.update(meta)
        return self

    def set_status(self, status: str) -> "Span":
        """Override the span's outcome status (``ok`` by default)."""
        self.status = status
        return self

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth-first), if any."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def count(self, name: Optional[str] = None) -> int:
        """Number of spans in this subtree (optionally only those named)."""
        return sum(
            1 for span in self.walk() if name is None or span.name == name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, %.6f..%s, %d children)" % (
            self.name, self.start,
            "open" if self.end is None else "%.6f" % self.end,
            len(self.children),
        )


class NullSpan:
    """The span handed out by a disabled tracer: every method is a no-op."""

    __slots__ = ()

    name = ""
    trace_id = ""
    start = 0.0
    end = 0.0
    status = "ok"
    meta: dict = {}
    children: List[Span] = []
    closed = True
    duration = 0.0

    def annotate(self, **meta: object) -> "NullSpan":
        """Discard the annotations; stay chainable like :meth:`Span.annotate`."""
        return self

    def set_status(self, status: str) -> "NullSpan":
        """Discard the status; stay chainable like :meth:`Span.set_status`."""
        return self


NULL_SPAN = NullSpan()


class _NullScope:
    """Shared reusable no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SCOPE = _NullScope()


class TraceContext:
    """The propagatable identity of an in-flight trace.

    Carried on ``HttpRequest.trace`` and ``WireMessage.trace`` so any
    component holding only the message can still annotate the right tree.
    """

    __slots__ = ("trace_id", "span")

    def __init__(self, trace_id: str, span: Span) -> None:
        self.trace_id = trace_id
        self.span = span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TraceContext(%r)" % self.trace_id


class Tracer:
    """Opens and closes spans against a shared simulated clock.

    ``enabled=False`` (the default) makes every tracing call a shared
    no-op; flipping it on costs one :class:`Span` allocation per stage.
    Completed root spans are retained in ``traces`` (a bounded deque) and
    the most recent one is always reachable as ``last_root`` so harnesses
    can annotate outcomes after the fact.
    """

    def __init__(self, clock=None, enabled: bool = False,
                 max_traces: int = 256) -> None:
        if enabled and clock is None:
            raise ConfigurationError("an enabled tracer needs a clock")
        self.clock = clock
        #: Bound ``clock.now`` for the hot path (one lookup per call).
        self._now = clock.now if clock is not None else None
        self._enabled = bool(enabled)
        self._stack: List[Span] = []
        self.traces: Deque[Span] = deque(maxlen=max_traces)
        self.last_root: Optional[Span] = None
        self.spans_opened = 0
        self.traces_completed = 0
        self._next_trace_id = 0

    # -- switching ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans (requires a clock)."""
        if self.clock is None:
            raise ConfigurationError("an enabled tracer needs a clock")
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; any open spans are abandoned."""
        self._enabled = False
        self._stack = []

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **meta: object):
        """Open a child span of the current one (or a new root).

        Returns a context manager yielding the :class:`Span`; on a
        disabled tracer this is a shared no-op and nothing is recorded.
        """
        if not self._enabled:
            return NULL_SCOPE
        stack = self._stack
        if not stack:
            return self._open_root(name, meta)
        parent = stack[-1]
        span = Span(name, parent.trace_id, self._now(), meta, self)
        parent.children.append(span)
        stack.append(span)
        self.spans_opened += 1
        return span

    def advance(self, name: str, seconds: float, **meta: object) -> float:
        """Advance the clock by ``seconds`` inside one closed leaf span.

        The same tree as ``with tracer.span(name, **meta):
        clock.advance(seconds)`` in one call; on a disabled tracer it is
        just the clock advance.  Returns the new virtual time.
        """
        if not self._enabled:
            return self.clock.advance(seconds)
        return self.leaf(name, seconds, "ok", meta).end

    def leaf(self, name: str, seconds: float, status: str, meta: dict) -> Span:
        """Record the leaf :meth:`advance` records, and return it.

        ``status`` is the leaf's outcome: a stage that failed before moving
        the clock records a 0-second leaf with the failure as its status.
        A leaf never has children, so it is not pushed on the span stack.
        Only for an enabled tracer.
        """
        stack = self._stack
        if not stack:
            with self._open_root(name, meta) as span:
                span.status = status
                self.clock.advance(seconds)
            return span
        parent = stack[-1]
        span = Span(name, parent.trace_id, self._now(), meta, self)
        span.status = status
        parent.children.append(span)
        self.spans_opened += 1
        try:
            span.end = self.clock.advance(seconds)
        except BaseException as exc:
            span.status = type(exc).__name__
            span.end = self._now()
            raise
        return span

    def request_span(self, request, **meta: object):
        """A root ``request`` span — or a no-op if a trace is already open.

        The per-request pipelines (testbed, overload, chaos) all call this
        at their entry point; whichever layer gets there first owns the
        root, and inner layers transparently contribute children instead of
        opening nested ``request`` roots.
        """
        if not self._enabled or self._stack:
            return NULL_SCOPE
        meta["url"] = request.url
        return self._open_root("request", meta)

    def _open_root(self, name: str, meta: dict) -> Span:
        """Open a new trace: a root span with a fresh trace ID."""
        span = Span(name, "t%06d" % self._next_trace_id, self._now(), meta, self)
        self._next_trace_id += 1
        self._stack.append(span)
        self.spans_opened += 1
        return span

    # -- context ------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if tracing is on and a trace is open."""
        if not self._enabled or not self._stack:
            return None
        return self._stack[-1]

    def current_context(self) -> Optional[TraceContext]:
        """A propagatable :class:`TraceContext` for the current span."""
        stack = self._stack
        if not self._enabled or not stack:
            return None
        span = stack[-1]
        return TraceContext(span.trace_id, span)

    def propagate(self, request):
        """Stamp the active trace context onto an ``HttpRequest``.

        Returns the request unchanged when tracing is off (the zero-cost
        path); otherwise sets the request's ``trace`` side-channel field in
        place — it is excluded from comparison/repr exactly so tracing
        never changes request identity — and returns the same object.
        """
        context = self.current_context()
        if context is None or getattr(request, "trace", None) is not None:
            return request
        object.__setattr__(request, "trace", context)
        return request

    def annotate_last(self, **meta: object) -> None:
        """Attach metadata to the most recently completed trace root."""
        if self._enabled and self.last_root is not None:
            self.last_root.annotate(**meta)

    # -- observability of the observer --------------------------------------

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows describing the tracer's own work."""
        return [
            ("trace.spans_opened", self.spans_opened),
            ("trace.traces_completed", self.traces_completed),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Tracer(enabled=%s, open=%d, completed=%d)" % (
            self._enabled, len(self._stack), self.traces_completed
        )


#: A permanently disabled tracer components can default to, so call sites
#: read ``with self.tracer.span(...)`` without None checks.  Never enable
#: it — it is shared process-wide.
NULL_TRACER = Tracer(clock=None, enabled=False, max_traces=1)


# -- tree invariants ---------------------------------------------------------


def assert_well_formed(root: Span) -> None:
    """Raise AssertionError unless the tree is rooted, closed, and nested.

    Checks: every span is closed with ``end >= start``; every child starts
    no earlier than its parent and ends no later; siblings are ordered and
    non-overlapping.
    """
    for span in root.walk():
        assert span.closed, "span %r never closed" % span.name
        assert span.end >= span.start - EPSILON, (
            "span %r ends before it starts" % span.name
        )
        previous_end = span.start
        for child in span.children:
            assert child.start >= span.start - EPSILON, (
                "child %r starts before parent %r" % (child.name, span.name)
            )
            assert child.closed and child.end <= span.end + EPSILON, (
                "child %r outlives parent %r" % (child.name, span.name)
            )
            assert child.start >= previous_end - EPSILON, (
                "siblings overlap at %r under %r" % (child.name, span.name)
            )
            previous_end = child.end


def assert_gap_free(root: Span) -> None:
    """Raise AssertionError unless every span's children tile it exactly.

    "Gap-free" is the accounting guarantee: for any span with children,
    the children's durations sum to the span's own duration (no virtual
    time vanishes between or around them), recursively.  Leaves are where
    the clock actually advances.
    """
    assert_well_formed(root)
    for span in root.walk():
        if not span.children:
            continue
        tiled = sum(child.duration for child in span.children)
        assert abs(tiled - span.duration) <= EPSILON * (len(span.children) + 1), (
            "gap in span %r: children cover %.9f of %.9f virtual seconds"
            % (span.name, tiled, span.duration)
        )
