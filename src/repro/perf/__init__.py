"""Performance measurement harnesses.

The modules here are *library* benchmarks: importable functions that time
two variants of one operation in paired runs, verify their observable
output is identical, and return JSON-serializable result dicts —
:mod:`~repro.perf.insight` times the Figure 4 testbed with the insight
layer attached against detached.  The ``python -m repro bench`` CLI is a
thin wrapper around them; the serve path itself is measured end to end by
``perfbench/run.py``.
"""

from .insight import run_insight

__all__ = ["run_insight"]
