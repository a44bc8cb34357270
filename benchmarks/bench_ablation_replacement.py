"""Ablation: replacement policies under a Zipf-skewed fragment stream.

The paper specifies a replacement manager but no policy.  Under Zipf
popularity with a capacity-constrained directory, recency/frequency-aware
policies (LRU/LFU) should beat FIFO — this bench measures achieved hit
ratios for each.
"""

import random

from repro.core.bem import BackEndMonitor
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import make_policy
from repro.network.clock import SimulatedClock
from repro.workload.zipf import ZipfDistribution

POLICIES = ("lru", "lfu", "fifo", "ttl", "gds")
FRAGMENT_UNIVERSE = 400
CAPACITY = 80            # only 20% of the universe fits
ACCESSES = 6000


def drive_policy(policy_name: str, seed: int = 17) -> float:
    clock = SimulatedClock()
    bem = BackEndMonitor(
        capacity=CAPACITY, clock=clock, policy=make_policy(policy_name)
    )
    zipf = ZipfDistribution(FRAGMENT_UNIVERSE, alpha=1.0)
    rng = random.Random(seed)
    for _ in range(ACCESSES):
        rank = zipf.sample(rng)
        fragment_id = FragmentID.create("frag", {"rank": rank})
        bem.process_block(fragment_id, FragmentMetadata, lambda rank=rank: "x" * 64)
        clock.advance(0.01)
    return bem.hit_ratio


def test_replacement_policies_under_zipf(benchmark, report):
    def run_all():
        return {name: drive_policy(name) for name in POLICIES}

    ratios = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report(
        "Ablation: hit ratio by replacement policy "
        "(Zipf alpha=1, capacity=20% of universe)",
        ["policy", "hit ratio"],
        [[name, "%.4f" % ratios[name]] for name in POLICIES],
    )

    # Recency/frequency awareness must beat FIFO under skew.
    assert ratios["lru"] > ratios["fifo"]
    assert ratios["lfu"] > ratios["fifo"]
    # And everything achieves some reuse.
    assert all(ratio > 0.2 for ratio in ratios.values())
