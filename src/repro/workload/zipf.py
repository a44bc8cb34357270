"""Zipfian popularity, the paper's page-access model.

"We assume that P(i) is governed by the Zipfian distribution, which has
been shown to describe Web page requests with reasonable accuracy [2, 12]."
(§5)

``P(i) proportional to 1 / rank(i)^alpha`` with ``alpha = 1`` as the classic
Zipf law; ``alpha = 0`` degenerates to uniform, larger alpha means more
skew.  Implemented with an explicit CDF table plus binary search so
sampling is O(log n) and exactly matches :meth:`ZipfDistribution.pmf`.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence

from ..errors import ConfigurationError


class ZipfDistribution:
    """Zipf(alpha) over ranks ``1..n`` (rank 1 is the most popular)."""

    def __init__(self, n: int, alpha: float = 1.0) -> None:
        if n <= 0:
            raise ConfigurationError("n must be positive")
        if alpha < 0:
            raise ConfigurationError("alpha cannot be negative")
        self.n = n
        self.alpha = alpha
        weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
        total = sum(weights)
        self._pmf = [w / total for w in weights]
        self._cdf: List[float] = []
        acc = 0.0
        for p in self._pmf:
            acc += p
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def pmf(self, rank: int) -> float:
        """P(rank), 1-indexed."""
        if not 1 <= rank <= self.n:
            raise ConfigurationError("rank %d out of range [1, %d]" % (rank, self.n))
        return self._pmf[rank - 1]

    def cdf(self, rank: int) -> float:
        """Cumulative probability through ``rank`` (1-indexed)."""
        if not 1 <= rank <= self.n:
            raise ConfigurationError("rank %d out of range [1, %d]" % (rank, self.n))
        return self._cdf[rank - 1]

    def sample(self, rng: random.Random) -> int:
        """Draw one rank (1-indexed)."""
        u = rng.random()
        return bisect.bisect_left(self._cdf, u) + 1

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` ranks."""
        return [self.sample(rng) for _ in range(count)]

    def expected_counts(self, total: int) -> List[float]:
        """Expected access counts per rank over ``total`` requests."""
        return [p * total for p in self._pmf]


def zipf_over(items: Sequence[object], alpha: float = 1.0) -> "ZipfChooser":
    """Convenience: a Zipf sampler returning the items themselves."""
    return ZipfChooser(list(items), alpha=alpha)


class ZipfChooser:
    """Zipf-weighted choice over an explicit item list (index = rank-1)."""

    def __init__(self, items: List[object], alpha: float = 1.0) -> None:
        if not items:
            raise ConfigurationError("items cannot be empty")
        self.items = items
        self.distribution = ZipfDistribution(len(items), alpha=alpha)

    def choose(self, rng: random.Random) -> object:
        """Zipf-weighted choice of one item."""
        return self.items[self.distribution.sample(rng) - 1]

    def probability_of(self, item: object) -> float:
        """The Zipf probability assigned to ``item``."""
        return self.distribution.pmf(self.items.index(item) + 1)
