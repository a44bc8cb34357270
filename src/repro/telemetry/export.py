"""Exporters: aligned text for metrics, an indented tree for traces.

* :func:`format_table` — the aligned text table every report prints, and
  :func:`render_metrics`, its two-column metrics form.
* :func:`render_span_tree` — an indented tree with virtual durations,
  statuses, and metadata, suitable for terminals and docs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .metrics import Row
from .tracing import Span


# -- metrics: aligned text ---------------------------------------------------


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table.

    Headers, ``-`` rules and two-space gutters, every column padded to its
    widest cell (trailing padding included); booleans print ``yes``/``no``
    and floats four decimals.  The one table renderer: the harness reports
    (:mod:`repro.harness.reporting`) and :func:`render_metrics` use it.
    """
    materialized: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def render_metrics(rows: Iterable[Row], title: Optional[str] = None) -> str:
    """Render rows as the two-column ``metric``/``value`` table, optionally
    under a title line."""
    table = format_table(("metric", "value"), rows)
    return table if title is None else "%s\n%s" % (title, table)


# -- traces ------------------------------------------------------------------


def _format_meta(meta: dict) -> str:
    return " ".join("%s=%s" % (key, meta[key]) for key in meta)


def render_span_tree(root: Span, indent: str = "  ") -> str:
    """Pretty-print one trace as an indented tree with virtual durations.

    Example::

        request  12.340ms  url=/page.jsp outcome=miss
          channel.transfer  1.000ms
          bem.process  10.340ms
            script.exec  9.100ms
    """
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        parts = ["%s%s" % (indent * depth, span.name),
                 "%.3fms" % (span.duration * 1000.0)]
        if span.status != "ok":
            parts.append("status=%s" % span.status)
        if span.meta:
            parts.append(_format_meta(span.meta))
        lines.append("  ".join(parts))
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
