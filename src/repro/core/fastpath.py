"""Global switch between the wire-path fast lanes and the reference lanes.

The serve path has two interchangeable implementations of its hot
operations:

* **fast lanes** — the single-pass wire codec: the origin renders a
  template in one pass over its instructions (memoized), and the proxy
  compiles each response straight to a flat assembly plan with a
  ``str.find`` sentinel walk and one tag regex, never building
  ``Template`` objects; an LRU parse cache keeps the plans of SET-free wire
  forms, and one plan-execution loop assembles every page.  This is the
  default: it is what a production deployment would run.
* **reference lanes** — the per-character KMP scan and the uncached
  parse-to-``Template``/``normalized()``-serialize/per-instruction
  assemble paths that mirror the paper's description operation for
  operation.

Both lanes are required to be *byte-identical* in every observable output:
assembled pages, serialized templates, scanned-byte counters (the ``z``
per-byte cost of Result 1), Sniffer totals, and metric rows.  The
differential property tests in ``tests/properties/test_fastpath_equivalence.py``
and ``tests/properties/test_wire_codec_equivalence.py`` enforce that, and ``benchmarks/bench_hotpath.py`` measures the speedup by
running the same workload under each lane.

The switch is process-global on purpose: the lanes differ only in constant
factors, never in semantics, so there is nothing per-instance to configure.
Set the environment variable ``REPRO_FASTPATH=0`` to start a process on the
reference lanes (useful for A/B timing), or use :func:`reference_lanes`
as a context manager in tests and benchmarks.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_enabled = os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "no")


def enabled() -> bool:
    """Whether the fast lanes are currently active."""
    return _enabled


def enable() -> None:
    """Activate the fast lanes (the default state)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Deactivate the fast lanes: every operation takes the reference lane."""
    global _enabled
    _enabled = False


@contextmanager
def reference_lanes() -> Iterator[None]:
    """Run a block on the reference (pre-optimization) lanes.

    Restores the previous state on exit, even on error::

        with fastpath.reference_lanes():
            testbed.run()   # per-character KMP scan, uncached parses
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


@contextmanager
def fast_lanes() -> Iterator[None]:
    """Run a block on the fast lanes regardless of the ambient state."""
    global _enabled
    previous = _enabled
    _enabled = True
    try:
        yield
    finally:
        _enabled = previous
