"""Plain-text tables and series for the benchmark harness output.

Every bench prints the same rows/series the paper's figure or table
reports, via these helpers, so ``pytest benchmarks/ --benchmark-only``
doubles as the reproduction log captured in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..telemetry.export import format_table


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Print a titled table to stdout."""
    print()
    print("=== %s ===" % title)
    print(format_table(headers, rows))


def drops_table(ledger) -> str:
    """Render a drop ledger as a reason-by-reason table, zeros included.

    ``ledger`` is duck-typed (anything exposing ``rows()`` and ``total``,
    normally a :class:`repro.overload.accounting.DropLedger`).  Every
    registered rejection reason gets a row even when its count is zero, so
    a silent drop path is visible as an explicit ``0`` rather than an
    absent line.
    """
    rows: List[Sequence[object]] = [list(row) for row in ledger.rows()]
    rows.append(["total", ledger.total])
    return format_table(["drop reason", "count"], rows)


def percent(value: float) -> str:
    """Format a percentage with one decimal, e.g. ``70.2%``."""
    return "%.1f%%" % value


def ratio(value: float) -> str:
    """Format a dimensionless ratio with three decimals."""
    return "%.3f" % value


def kb(value: float) -> str:
    """Format a byte count in binary kilobytes."""
    return "%.1f KB" % (value / 1024.0)


def mb(value: float) -> str:
    """Format a byte count in binary megabytes."""
    return "%.2f MB" % (value / (1024.0 * 1024.0))
