"""Tests for the cache directory and freeList slot discipline."""

import pytest

from repro.core.cache_directory import CacheDirectory, FreeList
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import FifoPolicy, LruPolicy, make_policy
from repro.errors import ConfigurationError, DirectoryFullError


def fid(name, **params):
    return FragmentID.create(name, params or None)


META = FragmentMetadata()


class TestFreeList:
    def test_initially_holds_all_keys(self):
        free = FreeList(4)
        assert len(free) == 4
        assert all(k in free for k in range(4))

    def test_pop_fifo_order(self):
        free = FreeList(3)
        assert [free.pop(), free.pop(), free.pop()] == [0, 1, 2]

    def test_pop_empty_raises(self):
        free = FreeList(1)
        free.pop()
        with pytest.raises(DirectoryFullError):
            free.pop()

    def test_push_recycles_at_end(self):
        free = FreeList(2)
        a = free.pop()
        free.pop()
        free.push(a)
        assert free.pop() == a

    def test_double_push_rejected(self):
        free = FreeList(2)
        key = free.pop()
        free.push(key)
        with pytest.raises(ConfigurationError):
            free.push(key)

    def test_out_of_range_push_rejected(self):
        with pytest.raises(ConfigurationError):
            FreeList(2).push(5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FreeList(0)


class TestLookupInsert:
    def test_miss_then_hit(self):
        directory = CacheDirectory(8)
        assert directory.lookup(fid("f"), now=0.0) is None
        directory.insert(fid("f"), META, size_bytes=100, now=0.0)
        entry = directory.lookup(fid("f"), now=1.0)
        assert entry is not None
        assert entry.size_bytes == 100
        assert entry.hits == 1

    def test_stats_track_hits_and_misses(self):
        directory = CacheDirectory(8)
        directory.lookup(fid("f"), 0.0)
        directory.insert(fid("f"), META, 10, 0.0)
        directory.lookup(fid("f"), 0.0)
        assert directory.stats.lookups == 2
        assert directory.stats.misses == 1
        assert directory.stats.hits == 1
        assert directory.stats.hit_ratio == 0.5

    def test_distinct_params_distinct_entries(self):
        directory = CacheDirectory(8)
        directory.insert(fid("g", user="bob"), META, 10, 0.0)
        assert directory.lookup(fid("g", user="alice"), 0.0) is None
        assert directory.lookup(fid("g", user="bob"), 0.0) is not None

    def test_keys_allocated_from_free_list(self):
        directory = CacheDirectory(4)
        e1 = directory.insert(fid("a"), META, 1, 0.0)
        e2 = directory.insert(fid("b"), META, 1, 0.0)
        assert e1.dpc_key == 0
        assert e2.dpc_key == 1

    def test_reinsert_over_valid_entry_recycles_key(self):
        directory = CacheDirectory(4)
        e1 = directory.insert(fid("a"), META, 1, 0.0)
        e2 = directory.insert(fid("a"), META, 2, 1.0)
        assert e2.is_valid
        assert directory.valid_count() == 1
        directory.check_invariants()


class TestTtl:
    def test_ttl_expiry_is_lazy(self):
        directory = CacheDirectory(4)
        directory.insert(fid("f"), FragmentMetadata(ttl=10.0), 1, now=0.0)
        assert directory.lookup(fid("f"), now=9.9) is not None
        assert directory.lookup(fid("f"), now=10.0) is None
        assert directory.stats.ttl_expirations == 1

    def test_expired_key_returns_to_free_list(self):
        directory = CacheDirectory(2)
        entry = directory.insert(fid("f"), FragmentMetadata(ttl=5.0), 1, now=0.0)
        directory.lookup(fid("f"), now=6.0)
        assert entry.dpc_key in directory.free_list
        directory.check_invariants()

    def test_expire_stale_sweep(self):
        directory = CacheDirectory(8)
        directory.insert(fid("a"), FragmentMetadata(ttl=5.0), 1, now=0.0)
        directory.insert(fid("b"), FragmentMetadata(ttl=50.0), 1, now=0.0)
        directory.insert(fid("c"), META, 1, now=0.0)
        assert directory.expire_stale(now=10.0) == 1
        assert directory.valid_count() == 2


class TestInvalidation:
    def test_invalidate_flips_and_recycles(self):
        directory = CacheDirectory(4)
        entry = directory.insert(fid("f"), META, 1, 0.0)
        assert directory.invalidate(fid("f"))
        assert not entry.is_valid
        assert entry.dpc_key in directory.free_list
        assert directory.lookup(fid("f"), 0.0) is None

    def test_invalidate_missing_returns_false(self):
        directory = CacheDirectory(4)
        assert not directory.invalidate(fid("nothing"))

    def test_invalidate_twice_is_idempotent(self):
        directory = CacheDirectory(4)
        directory.insert(fid("f"), META, 1, 0.0)
        assert directory.invalidate(fid("f"))
        assert not directory.invalidate(fid("f"))
        directory.check_invariants()

    def test_invalidate_where(self):
        directory = CacheDirectory(8)
        directory.insert(fid("a", u=1), META, 1, 0.0)
        directory.insert(fid("a", u=2), META, 1, 0.0)
        directory.insert(fid("b"), META, 1, 0.0)
        count = directory.invalidate_where(
            lambda entry: entry.fragment_id.name == "a"
        )
        assert count == 2
        assert directory.valid_count() == 1

    def test_invalidate_all(self):
        directory = CacheDirectory(8)
        for i in range(5):
            directory.insert(fid("f", i=i), META, 1, 0.0)
        assert directory.invalidate_all() == 5
        assert directory.valid_count() == 0
        directory.check_invariants()

    def test_key_reuse_after_invalidation(self):
        """§4.3.3's example: key 2 goes back and is later reassigned."""
        directory = CacheDirectory(4)
        directory.insert(fid("a"), META, 1, 0.0)  # key 0
        directory.insert(fid("b"), META, 1, 0.0)  # key 1
        directory.insert(fid("c"), META, 1, 0.0)  # key 2
        directory.invalidate(fid("c"))
        directory.insert(fid("d"), META, 1, 0.0)  # takes key 3 (FIFO)
        entry = directory.insert(fid("e"), META, 1, 0.0)  # recycles key 2
        assert entry.dpc_key == 2
        directory.check_invariants()


class TestReplacement:
    def test_eviction_when_full(self):
        directory = CacheDirectory(2, policy=LruPolicy())
        directory.insert(fid("a"), META, 1, now=0.0)
        directory.insert(fid("b"), META, 1, now=1.0)
        directory.lookup(fid("a"), now=2.0)  # a is now more recent
        directory.insert(fid("c"), META, 1, now=3.0)  # evicts b
        assert directory.lookup(fid("b"), 3.0) is None
        assert directory.lookup(fid("a"), 3.0) is not None
        assert directory.stats.evictions == 1
        directory.check_invariants()

    def test_fifo_policy_evicts_oldest(self):
        directory = CacheDirectory(2, policy=FifoPolicy())
        directory.insert(fid("a"), META, 1, now=0.0)
        directory.insert(fid("b"), META, 1, now=1.0)
        directory.lookup(fid("a"), now=2.0)  # recency is irrelevant to FIFO
        directory.insert(fid("c"), META, 1, now=3.0)
        assert directory.lookup(fid("a"), 3.0) is None

    def test_capacity_never_exceeded(self):
        directory = CacheDirectory(3)
        for i in range(10):
            directory.insert(fid("f", i=i), META, 1, now=float(i))
            assert directory.valid_count() <= 3
            directory.check_invariants()


class RemovalLog:
    """Insight stand-in that keeps every removal reason."""

    def __init__(self):
        self.removals = []
        self.evictions = 0

    def record_access(self, canonical, hit):
        pass

    def record_insert(self, canonical):
        pass

    def record_removal(self, canonical, reason):
        self.removals.append((canonical, reason))

    def record_eviction(self, policy_name, idle_s, hits, size_bytes):
        self.evictions += 1


class TestDesyncedVictim:
    """A row whose isValid flag was flipped without bookkeeping (the
    ``flip_valid`` corruption) is repaired, not evicted, when the policy
    picks it."""

    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "ttl", "gds"])
    def test_insert_repairs_desynced_victim(self, policy):
        directory = CacheDirectory(2, policy=make_policy(policy))
        log = RemovalLog()
        directory.attach_insight(log)
        directory.insert(fid("a"), META, 1, now=0.0)  # key 0
        directory.insert(fid("b"), META, 1, now=1.0)  # key 1
        directory.peek(fid("a")).is_valid = False
        entry = directory.insert(fid("c"), META, 1, now=2.0)
        assert entry.dpc_key == 0  # a's leaked key came back
        assert directory.stats.evictions == 0
        assert directory.stats.invalidations == 0
        assert log.evictions == 0
        assert log.removals == [(fid("a").canonical(), "fault_quarantine")]
        assert sorted(e.fragment_id.canonical() for e in directory.valid_entries()) == [
            fid("b").canonical(), fid("c").canonical()
        ]
        assert directory.peek(fid("a")) is None
        directory.check_invariants()

    def test_desynced_row_replaced_by_newer_entry_keeps_that_entry(self):
        directory = CacheDirectory(2)
        directory.insert(fid("a"), META, 1, now=0.0)  # key 0
        directory.insert(fid("b"), META, 1, now=1.0)  # key 1
        directory.peek(fid("a")).is_valid = False
        # Re-inserting "a" needs a key; the flipped row still holds key 0
        # and is the oldest candidate, so it is repaired, and the repair
        # must leave the newer entry for "a" in place.
        newer = directory.insert(fid("a"), META, 1, now=2.0)
        assert directory.peek(fid("a")) is newer and newer.is_valid
        assert directory.stats.evictions == 0
        directory.check_invariants()
        assert directory.valid_count() == 2
