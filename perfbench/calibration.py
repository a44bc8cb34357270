"""Host-speed calibration: wall times rescaled to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a quarter over tens of seconds as other tenants come and go; a pure
spin loop drifts as much as the program does, in wall and in CPU time.
So the run stops every slice for a few milliseconds of fixed pure-Python
work that never calls the program, and scales the slice's wall times by
``REFERENCE_S / calibration time``.  A faster program still reads faster;
a slower host no longer reads as a slower program.

The work mixes the two kinds the serve path does: interpreter-bound
formatting and dict traffic, and bulk string scanning, slicing and
joining over a 64 KB page.  Either kind alone tracks the program's drift
less well than the mix (measured on fig4-warm over 19 windows of 30 s:
the interquartile spread of latency p50 was 0.13 of its median raw, 0.09
scaled by the bulk part alone, 0.035 by the interpreter part alone and
0.03 by the mix).
"""

from __future__ import annotations

import time

#: Median of ``seconds()`` on the reference host: 2 vCPUs of an Intel Xeon
#: at 2.1 GHz under CPython 3.11.  Scaled times are the wall times that
#: host would have shown at that speed.
REFERENCE_S = 0.0080
#: ``work()`` runs this many times per calibration; the fastest counts, so
#: a preemption during one run does not skew the slice.
REPEATS = 2

_PAGE = "".join("<frag id=%d>%s" % (i, "x" * 4000) for i in range(16))


def work() -> int:
    """The fixed calibration work; returns a checksum so nothing is elided."""
    counts = {}
    parts = []
    for i in range(6000):
        key = "abc<frag id=%d>xyz" % (i & 255)
        counts[key] = counts.get(key, 0) + 1
        parts.append(key[3:9])
    total = len("".join(parts)) + len(counts)
    for _ in range(60):
        page = _PAGE.replace("x", "y", 1)
        pos = page.find("<frag", 0)
        while pos >= 0:
            total += 1
            pos = page.find("<frag", pos + 5)
        total += len("".join([page[:30000], page[30000:]]))
    return total


def seconds() -> float:
    """The fastest of ``REPEATS`` timed runs of ``work()``."""
    perf = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf()
        work()
        best = min(best, perf() - t0)
    return best


def factor() -> float:
    """Multiplier taking wall times measured now to the reference speed."""
    return REFERENCE_S / seconds()
