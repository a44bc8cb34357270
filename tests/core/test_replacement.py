"""Tests for replacement policies in isolation."""

from math import log2, nextafter

import pytest

from repro.core.cache_directory import CacheDirectory, DirectoryEntry
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import (
    DecayedFrequencyPolicy,
    FifoPolicy,
    GreedyDualSizePolicy,
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

    def test_ttl_keys_on_the_absolute_expiry(self):
        """Two expiries one ulp apart, far before ``now``: the time left
        rounds them together (so a scan over it would fall back to
        recency and take ``b``), while the absolute expiry keeps them
        apart and takes ``a``."""
        now = 1e10
        a = entry("a", 0, created=0.0, ttl=0.1, accessed=5.0)
        b = entry("b", 1, created=0.0, ttl=nextafter(0.1, 1.0), accessed=1.0)
        assert a.created_at + a.ttl < b.created_at + b.ttl
        assert a.created_at + a.ttl - now == b.created_at + b.ttl - now
        assert TtlAwarePolicy().select_victim([a, b], now=now) is a

    def test_empty_candidates_give_none(self):
        assert LruPolicy().select_victim([], now=0.0) is None


class TestFactory:
    @pytest.mark.parametrize("name", ["lrfu", "lru", "lfu", "fifo", "ttl", "gds"])
    def test_known_names(self, name):
        assert make_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("random")


class TestGreedyDualSize:
    def test_factory_knows_gds(self):
        assert make_policy("gds").name == "gds"

    def test_small_stale_entry_evicted_before_large_fresh(self):
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
        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000   # credit 1/1000: cheap to lose
        b = entry("b", 1)
        b.size_bytes = 10     # credit 1/10
        first = policy.select_victim([a, b], now=0.0)
        assert first is a     # lowest cost/size credit
        assert policy._inflation == pytest.approx(1.0 / 1000)

    def test_refreshed_entries_get_inflated_credit(self):
        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000
        b = entry("b", 1)
        b.size_bytes = 1000
        policy.select_victim([a, b], now=0.0)  # evicts one, inflates L
        # A hit on b re-keys it at the raised inflation.
        b.hits += 1
        policy.on_access(b)
        assert policy._keys[b.dpc_key] == pytest.approx(2.0 / 1000)

    def test_invalidated_credit_does_not_pass_to_the_next_row_on_its_key(self):
        """A row that reuses an invalidated row's dpcKey, with the same
        ``(hits, last_access)``, is keyed at its own credit."""
        directory = CacheDirectory(2, policy=make_policy("gds"))

        def insert(name, now):
            return directory.insert(
                FragmentID.create(name), FragmentMetadata(), 10, now=now
            )

        insert("A", 0.0)
        b = insert("B", 0.0)
        directory.lookup(b.fragment_id, now=1.0)
        c = insert("C", 1.0)           # evicts A; L rises to 1
        assert directory.peek(FragmentID.create("A")) is None
        directory.invalidate(b.fragment_id)
        d = insert("D", 1.0)           # B's dpcKey, no eviction
        assert d.dpc_key == b.dpc_key
        directory.lookup(d.fragment_id, now=1.0)  # B's stamp: one hit at t=1
        insert("E", 2.0)
        # C and D both have credit L + 1 = 2; the tie goes to C's lower key.
        assert c.dpc_key < d.dpc_key
        assert directory.peek(c.fragment_id) is None
        assert directory.peek(d.fragment_id) is d and d.is_valid

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


@pytest.mark.parametrize("name", ["lrfu", "lru", "lfu", "fifo", "ttl", "gds"])
def test_built_index_never_iterates_entries(name):
    """Once built, every policy picks from its own index: the lowest
    (current key, dpcKey) among the valid rows."""
    directory = CacheDirectory(8, policy=make_policy(name))
    for i in range(9):
        directory.insert(
            FragmentID.create("f", {"i": i}),
            FragmentMetadata(ttl=None if i % 2 else 50.0 - i),
            10 * (i % 3 + 1),
            now=float(i),
        )
    assert directory.stats.evictions == 1
    for i in (3, 5, 2, 3):
        directory.lookup(FragmentID.create("f", {"i": i}), now=100.0 + i)
    policy = directory.policy
    for _ in range(3):
        expected = min(
            directory.valid_entries(),
            key=lambda e: (policy._keys[e.dpc_key], e.dpc_key),
        )
        assert policy.select_victim(NotIterable(), now=200.0) is expected
        directory.invalidate(expected.fragment_id)


class TestLruIndex:
    def test_hooks_are_noops_until_first_selection(self):
        policy = LruPolicy()
        a = entry("a", 0, accessed=1.0)
        policy.on_insert(a)
        policy.on_access(a)
        policy.on_remove(a)
        assert policy._heap is None and policy._entries == [] and policy._live == 0

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
        directory = CacheDirectory(3, policy=LruPolicy())
        for i, t in enumerate((4.0, 5.0, 6.0, 7.0)):  # the 4th insert evicts
            directory.insert(FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, t)
        late = directory.lookup(FragmentID.create("f", {"i": 3}), now=1.0)
        assert directory.policy.select_victim(NotIterable(), now=1.0) is late


def full_decayed_directory(capacity):
    """A full directory on the default policy, index built by one eviction."""
    directory = CacheDirectory(capacity)
    for i in range(capacity + 1):
        directory.insert(
            FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, now=float(i)
        )
    assert directory.stats.evictions == 1
    return directory, directory.policy


class TestDecayedFrequency:
    def test_is_the_directory_default(self):
        assert type(CacheDirectory(4).policy) is DecayedFrequencyPolicy

    def test_hooks_are_noops_until_first_selection(self):
        policy = DecayedFrequencyPolicy()
        a = entry("a", 0, accessed=1.0)
        policy.on_insert(a)
        policy.on_access(a)
        policy.on_remove(a)
        assert policy._heap is None
        assert (policy._entries, policy._keys, policy._gens) == ([], [], [])
        assert (policy._live, policy._tick) == (0, 0)
        assert not policy._ghost

    def test_first_selection_replays_lru_order(self):
        entries = [entry("a", 0, accessed=5.0), entry("b", 1, accessed=2.0)]
        policy = DecayedFrequencyPolicy()
        assert policy.select_victim(entries, now=10.0).dpc_key == 1
        assert policy._capacity == 2
        assert policy._tick == 2

    def test_frequency_beats_recency(self):
        directory, policy = full_decayed_directory(4)
        hot = FragmentID.create("f", {"i": 1})  # the oldest survivor
        for n in range(3):
            assert directory.lookup(hot, now=10.0 + n) is not None
        directory.insert(FragmentID.create("g"), FragmentMetadata(), 1, now=20.0)
        assert directory.peek(hot).is_valid
        assert directory.peek(FragmentID.create("f", {"i": 2})) is None

    def test_count_survives_invalidation(self):
        """A hot fragment invalidated and re-inserted keeps its count, so a
        one-shot fragment is evicted before it."""
        directory, policy = full_decayed_directory(4)
        hot = FragmentID.create("f", {"i": 4})
        for n in range(3):
            directory.lookup(hot, now=10.0 + n)
        directory.invalidate(hot)
        assert hot in policy._ghost
        directory.insert(hot, FragmentMetadata(), 1, now=13.0)
        assert hot not in policy._ghost
        # Four one-shot inserts: the three older survivors go first, then
        # the oldest one-shot, not the re-inserted fragment, although LRU
        # (and a count that restarted at one) would take it.
        for n in range(4):
            directory.insert(
                FragmentID.create("once", {"n": n}), FragmentMetadata(), 1, 14.0 + n
            )
        assert directory.peek(hot).is_valid
        assert directory.peek(FragmentID.create("once", {"n": 0})) is None
        assert directory.stats.evictions == 5

    def test_built_index_never_iterates_entries(self):
        directory, policy = full_decayed_directory(8)
        for i in (3, 5, 2, 3):
            directory.lookup(FragmentID.create("f", {"i": i}), now=100.0 + i)
        victim = policy.select_victim(NotIterable(), now=200.0)
        assert victim.fragment_id == FragmentID.create("f", {"i": 1})
        directory.invalidate(victim.fragment_id)
        assert policy.select_victim(NotIterable(), now=200.0).fragment_id == (
            FragmentID.create("f", {"i": 4})
        )

    def test_key_stays_finite_over_long_runs(self):
        """The key's tick term grows without bound; the score is added in
        log space, so neither term overflows a float."""
        policy = DecayedFrequencyPolicy()
        a = entry("a", 0)
        policy.select_victim([a], now=0.0)
        policy._tick = 10 ** 9
        for _ in range(3):
            policy.on_access(a)
        # H is 10 here: the three hits score 1 + 2^-0.1 + 2^-0.2; the
        # access a billion ticks back adds nothing.
        score = 1 + 2 ** -0.1 + 2 ** -0.2
        assert policy._keys[a.dpc_key] == pytest.approx(
            (10 ** 9 + 3) * policy._per_tick + log2(score), abs=1e-6
        )
