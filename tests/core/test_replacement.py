"""Tests for replacement policies in isolation."""

import pytest

from repro.core.cache_directory import CacheDirectory, DirectoryEntry
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import (
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    TtlAwarePolicy,
    make_policy,
)
from repro.errors import ConfigurationError


def entry(name, key, created=0.0, accessed=0.0, hits=0, ttl=None):
    return DirectoryEntry(
        fragment_id=FragmentID.create(name),
        dpc_key=key,
        created_at=created,
        last_access=accessed,
        hits=hits,
        ttl=ttl,
    )


class TestPolicies:
    def test_lru_picks_least_recent(self):
        entries = [entry("a", 0, accessed=5.0), entry("b", 1, accessed=2.0)]
        assert LruPolicy().select_victim(entries, now=10.0).dpc_key == 1

    def test_lfu_picks_least_used(self):
        entries = [entry("a", 0, hits=10), entry("b", 1, hits=2)]
        assert LfuPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_lfu_ties_broken_by_recency(self):
        entries = [
            entry("a", 0, hits=2, accessed=9.0),
            entry("b", 1, hits=2, accessed=1.0),
        ]
        assert LfuPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_fifo_picks_oldest(self):
        entries = [entry("a", 0, created=5.0), entry("b", 1, created=1.0)]
        assert FifoPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_ttl_picks_soonest_to_expire(self):
        entries = [
            entry("a", 0, created=0.0, ttl=100.0),
            entry("b", 1, created=0.0, ttl=10.0),
        ]
        assert TtlAwarePolicy().select_victim(entries, now=5.0).dpc_key == 1

    def test_ttl_prefers_ttl_entries_over_immortal(self):
        entries = [
            entry("a", 0, ttl=None),
            entry("b", 1, created=0.0, ttl=1000.0),
        ]
        assert TtlAwarePolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_empty_candidates_give_none(self):
        assert LruPolicy().select_victim([], now=0.0) is None


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "lfu", "fifo", "ttl"])
    def test_known_names(self, name):
        assert make_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("random")


class TestGreedyDualSize:
    def test_factory_knows_gds(self):
        assert make_policy("gds").name == "gds"

    def test_small_stale_entry_evicted_before_large_fresh(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy()
        small = entry("small", 0)
        small.size_bytes = 100
        large = entry("large", 1)
        large.size_bytes = 100_000
        # Equal cost/size credit at first touch (cost == size), so the
        # tiebreak and inflation dynamics decide; after one eviction the
        # inflation floor rises, favouring keeping recently-credited ones.
        victim = policy.select_victim([small, large], now=0.0)
        assert victim in (small, large)

    def test_inflation_rises_after_eviction(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000   # credit 1/1000: cheap to lose
        b = entry("b", 1)
        b.size_bytes = 10     # credit 1/10
        first = policy.select_victim([a, b], now=0.0)
        assert first is a     # lowest cost/size credit
        assert policy._inflation == pytest.approx(1.0 / 1000)

    def test_refreshed_entries_get_inflated_credit(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000
        b = entry("b", 1)
        b.size_bytes = 1000
        policy.select_victim([a, b], now=0.0)  # evicts one, inflates L
        # Touch b (its hits change) -> fresh credit includes inflation.
        b.hits += 1
        survivor_credit = policy._credit_of(b)
        assert survivor_credit > 1.0 / 1000

    def test_gds_works_inside_directory(self):
        from repro.core.cache_directory import CacheDirectory
        from repro.core.fragments import FragmentID, FragmentMetadata

        directory = CacheDirectory(2, policy=make_policy("gds"))
        for i in range(8):
            directory.insert(
                FragmentID.create("f", {"i": i}),
                FragmentMetadata(),
                size_bytes=(i + 1) * 100,
                now=float(i),
            )
            directory.check_invariants()
        assert directory.valid_count() == 2


class NotIterable:
    """Stands in for ``entries`` once the LRU index is built."""

    def __iter__(self):
        raise AssertionError("select_victim iterated its candidates")


def full_lru_directory(capacity):
    """A full LRU directory whose index has been built by one eviction."""
    policy = LruPolicy()
    directory = CacheDirectory(capacity, policy=policy)
    for i in range(capacity + 1):
        directory.insert(
            FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, now=float(i)
        )
    assert directory.stats.evictions == 1
    return directory, policy


class TestLruIndex:
    def test_hooks_are_noops_until_first_selection(self):
        policy = LruPolicy()
        a = entry("a", 0, accessed=1.0)
        policy.on_insert(a)
        policy.on_access(a)
        policy.on_remove(a)
        assert policy._heap is None and policy._live == {}

    def test_built_index_never_iterates_entries(self):
        directory, policy = full_lru_directory(8)
        for i in (3, 5, 2):
            directory.lookup(FragmentID.create("f", {"i": i}), now=100.0 + i)
        expected = min(
            directory.valid_entries(), key=lambda e: (e.last_access, e.dpc_key)
        )
        assert policy.select_victim(NotIterable(), now=200.0) is expected
        directory.invalidate(expected.fragment_id)
        assert policy.select_victim(NotIterable(), now=200.0) is min(
            directory.valid_entries(), key=lambda e: (e.last_access, e.dpc_key)
        )

    def test_heap_stays_bounded_under_hit_only_traffic(self):
        capacity = 64
        directory, policy = full_lru_directory(capacity)
        ids = [FragmentID.create("f", {"i": i}) for i in range(1, capacity + 1)]
        now = float(capacity)
        for n in range(100_000):
            now += 0.001
            assert directory.lookup(ids[n % capacity], now) is not None
            assert len(policy._heap) <= 2 * directory.valid_count() + LruPolicy.SLACK
        assert directory.stats.evictions == 1
        assert policy.select_victim(NotIterable(), now) is directory.peek(
            ids[100_000 % capacity]
        )

    def test_access_back_in_time_reindexes(self):
        """A hit at an earlier ``now`` lowers the entry's key; a record left
        at the old key would hide it behind entries in between."""
        directory = CacheDirectory(3)
        for i, t in enumerate((4.0, 5.0, 6.0, 7.0)):  # the 4th insert evicts
            directory.insert(FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, t)
        late = directory.lookup(FragmentID.create("f", {"i": 3}), now=1.0)
        assert directory.policy.select_victim(NotIterable(), now=1.0) is late
