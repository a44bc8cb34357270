"""Ablation: popularity skew vs achieved hit ratio under capacity pressure.

The paper justifies its 0.8 baseline hit ratio by the locality of web
request streams [2, 12].  This bench makes that argument executable: with
a capacity-limited directory, the achieved hit ratio rises with Zipf skew.
(Without capacity pressure and without invalidation, h approaches 1
regardless — locality is what makes *small* caches effective.)
"""

import random

from repro.core.bem import BackEndMonitor
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.network.clock import SimulatedClock
from repro.workload.zipf import ZipfDistribution

ALPHAS = (0.0, 0.5, 0.8, 1.0, 1.5)
UNIVERSE = 500
CAPACITY = 50            # 10% of the universe
ACCESSES = 8000


def achieved_hit_ratio(alpha: float, seed: int = 5) -> float:
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=CAPACITY, clock=clock)
    zipf = ZipfDistribution(UNIVERSE, alpha=alpha)
    rng = random.Random(seed)
    for _ in range(ACCESSES):
        rank = zipf.sample(rng)
        bem.process_block(
            FragmentID.create("frag", {"rank": rank}),
            FragmentMetadata,
            lambda: "x" * 64,
        )
        clock.advance(0.001)
    return bem.hit_ratio


def test_hit_ratio_vs_zipf_skew(benchmark, report):
    def run_all():
        return [(alpha, achieved_hit_ratio(alpha)) for alpha in ALPHAS]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report(
        "Ablation: achieved hit ratio vs Zipf skew "
        "(capacity = 10% of fragment universe, LRU)",
        ["alpha", "hit ratio"],
        [["%.1f" % alpha, "%.4f" % ratio] for alpha, ratio in rows],
    )

    ratios = [ratio for _, ratio in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))  # skew helps
    # Uniform traffic against a 10% cache: hit ratio near 10%.
    assert ratios[0] < 0.2
    # Strong skew achieves the paper's 0.8 neighbourhood.
    assert ratios[-1] > 0.6
