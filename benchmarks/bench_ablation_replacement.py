"""Ablation: replacement policies under a Zipf-skewed fragment stream.

The paper specifies a replacement manager but no policy.  Under Zipf
popularity with a capacity-constrained directory, recency/frequency-aware
policies (LRU/LFU) should beat FIFO — this bench measures achieved hit
ratios for each.  A second run shifts popularity halfway through (every
rank moves to a different fragment) and charts the hit ratio per thousand
accesses: pure LFU stays pinned to the old favourites, while the decayed
counts of the directory's default policy (``lrfu``) forget them.
"""

import random

from repro.core.bem import BackEndMonitor
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import make_policy
from repro.network.clock import SimulatedClock
from repro.workload.zipf import ZipfDistribution

POLICIES = ("lrfu", "lru", "lfu", "fifo", "ttl", "gds")
FRAGMENT_UNIVERSE = 400
CAPACITY = 80            # only 20% of the universe fits
ACCESSES = 6000
#: The popularity-shift run: ``ACCESSES`` before the shift, as many after,
#: with the hit ratio read per ``WINDOW`` accesses.
WINDOW = 1000
#: The decayed policy must match LRU within this many accesses of the shift.
RECOVERY = 2000


def drive_policy(policy_name: str, seed: int = 17, shift_at=None, accesses=ACCESSES):
    """The run's hit ratio and its hit ratio per ``WINDOW`` accesses.

    With ``shift_at``, rank ``r`` maps to fragment ``r`` before that access
    and to a seeded permutation of the universe from it on.
    """
    clock = SimulatedClock()
    bem = BackEndMonitor(
        capacity=CAPACITY, clock=clock, policy=make_policy(policy_name)
    )
    zipf = ZipfDistribution(FRAGMENT_UNIVERSE, alpha=1.0)
    rng = random.Random(seed)
    shifted = list(range(1, FRAGMENT_UNIVERSE + 1))
    random.Random(seed + 1).shuffle(shifted)
    windows = []
    hits = 0
    for n in range(accesses):
        rank = zipf.sample(rng)
        if shift_at is not None and n >= shift_at:
            rank = shifted[rank - 1]
        fragment_id = FragmentID.create("frag", {"rank": rank})
        bem.process_block(fragment_id, FragmentMetadata, lambda rank=rank: "x" * 64)
        clock.advance(0.01)
        if (n + 1) % WINDOW == 0:
            windows.append((bem.stats.fragment_hits - hits) / WINDOW)
            hits = bem.stats.fragment_hits
    return bem.hit_ratio, windows


def test_replacement_policies_under_zipf(benchmark, report):
    def run_all():
        return {name: drive_policy(name)[0] for name in POLICIES}

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
    # Decayed frequency keeps frequency's edge over both.
    assert ratios["lrfu"] > ratios["lfu"] > ratios["lru"]
    # And everything achieves some reuse.
    assert all(ratio > 0.2 for ratio in ratios.values())


def test_popularity_shift(benchmark, report):
    shifted = ("lrfu", "lru", "lfu")

    def run_all():
        return {
            name: drive_policy(name, shift_at=ACCESSES, accesses=2 * ACCESSES)[1]
            for name in shifted
        }

    windows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    after = ACCESSES // WINDOW  # index of the first window after the shift

    report(
        "Ablation: hit ratio per %d accesses, popularity shift at access %d"
        % (WINDOW, ACCESSES),
        ["accesses"] + list(shifted),
        [
            ["%d-%d" % (i * WINDOW, (i + 1) * WINDOW)]
            + ["%.3f" % windows[name][i] for name in shifted]
            for i in range(len(windows["lru"]))
        ],
    )

    recovery = range(after, after + RECOVERY // WINDOW)
    # Within RECOVERY accesses of the shift the decayed policy is back to
    # LRU's hit ratio; LFU is not.
    assert any(windows["lrfu"][i] >= windows["lru"][i] for i in recovery)
    assert all(windows["lfu"][i] < windows["lru"][i] for i in recovery)
