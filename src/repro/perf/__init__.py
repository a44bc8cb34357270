"""Performance measurement harnesses.

The modules here are *library* benchmarks: importable functions that time
two variants of one operation in paired runs, verify their observable
output is identical, and return JSON-serializable result dicts —
:mod:`~repro.perf.scan` times the ``str.find`` sentinel scan against its
KMP oracle, :mod:`~repro.perf.insight` the Figure 4 testbed with the
insight layer attached against detached.  The scripts in ``benchmarks/``
and the ``python -m repro bench`` CLI are thin wrappers around them.
"""

from .insight import run_insight
from .scan import run_scan

__all__ = ["run_insight", "run_scan"]
