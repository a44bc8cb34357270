"""Microbenchmark: sentinel scan throughput, ``str.find`` vs KMP reference.

Isolates the linear scan of a response body for the tag sentinel from
everything else the testbed does, and times the serve path's ``str.find``
scan against the per-character KMP oracle it is tested against.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List

from ..core.scanner import TagScanner
from ..core.template import SENTINEL

#: Size of each synthetic response body scanned per iteration.
TEXT_BYTES = 65536

#: Reduced settings for smoke runs.
SMOKE_SETTINGS: Dict[str, int] = {"iterations": 30, "pairs": 5}


def _make_text(seed: int) -> str:
    """A ``TEXT_BYTES``-long body with a few embedded sentinels."""
    rng = random.Random(seed)
    filler = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz <>~:") for _ in range(512)
    )
    body = (filler * (TEXT_BYTES // len(filler) + 1))[:TEXT_BYTES]
    # Splice in a handful of real sentinels so both scans do match work.
    chunk = TEXT_BYTES // 8
    return SENTINEL.join(body[i : i + chunk] for i in range(0, TEXT_BYTES, chunk))


def _timed_scan(kmp: bool, text: str, iterations: int) -> float:
    """Wall seconds for ``iterations`` scans with KMP or ``str.find``."""
    scanner = TagScanner(SENTINEL)
    scan = scanner.kmp_positions if kmp else scanner.positions
    start = time.perf_counter()
    for _ in range(iterations):
        scan(text)
    return time.perf_counter() - start


def run_scan(iterations: int = 100, pairs: int = 7, seed: int = 7) -> Dict[str, object]:
    """Measure scan speedup (fast over KMP); returns a JSON-ready dict.

    Runs paired, order-alternating timings with GC disabled and reports
    the lower quartile of the per-pair ratios.  Also asserts both scans
    report the same match positions on the benchmark text.
    """
    text = _make_text(seed)
    scanner = TagScanner(SENTINEL)
    fast_positions = scanner.positions(text)
    if scanner.kmp_positions(text) != fast_positions:
        raise AssertionError("find and KMP scans disagree on match positions")

    ratios: List[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _timed_scan(False, text, iterations)  # warm-up
        for index in range(pairs):
            order = (True, False) if index % 2 == 0 else (False, True)
            walls = {}
            for kmp in order:
                gc.collect()
                walls[kmp] = _timed_scan(kmp, text, iterations)
            ratios.append(walls[True] / walls[False])
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios.sort()
    return {
        "benchmark": "scan",
        "text_bytes": len(text),
        "iterations": iterations,
        "pairs": pairs,
        "sentinels_found": len(fast_positions),
        "speedup": {
            "lower_quartile": round(ratios[len(ratios) // 4], 4),
            "median": round(ratios[len(ratios) // 2], 4),
        },
    }
