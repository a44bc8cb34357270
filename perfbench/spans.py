"""Wall-clock spans recorded from outside the program.

The traced run wraps the public entry points of each layer on a built
instance (instance attributes shadow the class methods, so library code is
untouched).  Every span records its layer, method, start and end
(``perf_counter_ns``), the span that caused it and the operation it belongs
to.  Spans stay in memory and are written out when the run ends.

The program's own ``repro.telemetry.Tracer`` stays off: it measures virtual
time and changes the clock-advance arithmetic the simulated-latency metrics
depend on.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Layers in report order; each maps to the program module it wraps.
LAYERS = (
    "network.firewall",
    "network.channel",
    "appserver",
    "appserver.session",
    "core.bem",
    "core.cache_directory",
    "core.replacement",
    "core.invalidation",
    "core.dpc",
    "database",
    "cms",
)
#: Root spans: one per operation the loop issues, carrying the glue the
#: harness runs around the layers (message construction, clock arithmetic).
OP_LAYER = "op"
_NO_PARENT = -1

Span = Tuple[int, int, int, str, str, int, int]


class SpanRecorder:
    """Collects (span_id, parent_id, op_id, layer, method, start_ns, end_ns)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = _NO_PARENT
        self._stack = [_NO_PARENT]
        self._next_id = 0

    def wrap(self, layer: str, method: str, fn):
        """``fn`` recorded as one span per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op_id, layer, method, start, end))

        return traced

    def root(self, kind: str, fn):
        """``fn`` recorded as the root span of a new operation per call."""
        traced = self.wrap(OP_LAYER, kind, fn)

        def operation(*args, **kwargs):
            self.op_id += 1
            return traced(*args, **kwargs)

        return operation


def instrument(recorder: SpanRecorder, instance) -> None:
    """Wrap every layer entry point of ``instance`` in spans."""
    wrap = recorder.wrap
    firewall = instance.firewall
    firewall.scan_bytes = wrap("network.firewall", "scan_bytes", firewall.scan_bytes)
    link = instance.link
    link.send = wrap("network.channel", "send", link.send)

    server = instance.server
    handle = server.handle

    def handle_counting_blocks(request):
        response = handle(request)
        recorder.counts["appserver.blocks"] += response.meta["blocks"]
        return response

    server.handle = wrap("appserver", "handle", handle_counting_blocks)
    sessions = server.sessions
    sessions.resolve = wrap("appserver.session", "resolve", sessions.resolve)

    bem = instance.bem
    bem.process_block = wrap("core.bem", "process_block", bem.process_block)
    directory = bem.directory
    directory.lookup = wrap("core.cache_directory", "lookup", directory.lookup)
    directory.insert = wrap("core.cache_directory", "insert", directory.insert)
    policy = directory.policy
    policy.select_victim = wrap(
        "core.replacement", "select_victim", policy.select_victim
    )
    # The trigger bus holds the bound method it was given: re-subscribe so
    # it dispatches to the wrapper.
    invalidation = bem.invalidation
    invalidation.detach_all()
    invalidation.on_change = wrap(
        "core.invalidation", "on_change", invalidation.on_change
    )
    invalidation.attach(instance.services.db.bus)

    dpc = instance.dpc
    dpc.process_response = wrap("core.dpc", "process_response", dpc.process_response)

    db = instance.services.db
    for name in db.table_names():
        table = db.table(name)
        for method in ("get", "lookup", "update"):
            setattr(table, method, wrap("database", method, getattr(table, method)))
        table.scan = wrap("database", "scan", _materialized(table.scan))

    engine = instance.services.personalization
    if engine is not None:
        for method in (
            "profile_for",
            "greeting_for",
            "recommendations_for",
            "promos_for",
            "layout_for",
        ):
            setattr(engine, method, wrap("cms", method, getattr(engine, method)))


def _materialized(scan):
    """``Table.scan`` is a generator: run it inside the span.  Every caller
    consumes the whole scan, so reading rows eagerly changes nothing else."""

    def scan_all(*args, **kwargs):
        return iter(list(scan(*args, **kwargs)))

    return scan_all


class SelfTimes:
    """Per-layer calls and self time (duration minus child spans)."""

    def __init__(self, spans: List[Span]) -> None:
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _op, _layer, _method, start, end in spans:
            if parent != _NO_PARENT:
                child_ns[parent] += end - start
        self.calls: Dict[str, int] = defaultdict(int)
        self.method_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.negative_self = 0
        op_self: Dict[int, int] = defaultdict(int)
        op_wall: Dict[int, int] = {}
        for span_id, parent, op, layer, method, start, end in spans:
            own = end - start - child_ns.get(span_id, 0)
            if own < 0:
                self.negative_self += 1
            self.calls[layer] += 1
            self.method_calls[layer, method] += 1
            self.self_ns[layer] += own
            op_self[op] += own
            if parent == _NO_PARENT:
                op_wall[op] = end - start
        #: Operations whose spans' self times sum to more than the
        #: operation's own wall time (a span escaped its parent).
        self.overfull_ops = sum(
            1 for op, total in op_self.items() if total > op_wall.get(op, 0)
        )
        self.total_ns = sum(op_wall.values())

    def table(self, requests: int) -> List[Tuple[str, int, float, float]]:
        """Rows of (layer, calls, self µs per request, share of traced time)."""
        rows = []
        for layer in LAYERS + (OP_LAYER,):
            own = self.self_ns.get(layer, 0)
            rows.append((
                layer,
                self.calls.get(layer, 0),
                own / 1000.0 / requests,
                own / self.total_ns if self.total_ns else 0.0,
            ))
        return rows


def write_spans(path: str, spans: List[Span]) -> None:
    """Dump spans as tab-separated values with a header row."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("span_id\tparent_id\top_id\tlayer\tmethod\tstart_ns\tend_ns\n")
        for span in spans:
            out.write("%d\t%d\t%d\t%s\t%s\t%d\t%d\n" % span)
