"""The sample percentile shared by harnesses and benchmarks.

One home for the quantile that used to be re-implemented (with subtly
different rank conventions) in the overload harness, the testbed result,
and benchmark scripts.  It is dependency-free and operates on plain lists
of floats.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (q in [0, 1]) of a sample; 0.0 when empty.

    Nearest-rank (ceil(q*n)) so small-sample tails are not systematically
    overstated: p99 of 50 values is the 50th rank only when q*n rounds up
    past 49, and p50 of an even-length sample takes the lower middle rank.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]
