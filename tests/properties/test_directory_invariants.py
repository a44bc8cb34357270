"""Property: the cache directory's slot discipline holds under any
operation sequence (invariant 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import make_policy

FRAGMENT_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(FRAGMENT_NAMES),
                  st.floats(0, 100)),
        st.tuples(st.just("lookup"), st.sampled_from(FRAGMENT_NAMES),
                  st.floats(0, 100)),
        st.tuples(st.just("invalidate"), st.sampled_from(FRAGMENT_NAMES),
                  st.floats(0, 100)),
        st.tuples(st.just("expire"), st.just(""), st.floats(0, 200)),
    ),
    max_size=60,
)


def apply_ops(directory, ops):
    now = 0.0
    for op, name, t in ops:
        now = max(now, t)  # time is monotone
        if op == "insert":
            directory.insert(
                FragmentID.create(name), FragmentMetadata(ttl=25.0), 10, now
            )
        elif op == "lookup":
            directory.lookup(FragmentID.create(name), now)
        elif op == "invalidate":
            directory.invalidate(FragmentID.create(name))
        elif op == "expire":
            directory.expire_stale(now)
        directory.check_invariants()


@given(
    operations,
    st.integers(1, 6),
    st.sampled_from(["lrfu", "lru", "lfu", "fifo", "ttl", "gds"]),
)
@settings(max_examples=200)
def test_slot_discipline_under_random_ops(ops, capacity, policy):
    """Every dpcKey is either free or backing exactly one valid entry,
    regardless of operation order, capacity pressure, or policy."""
    directory = CacheDirectory(capacity, policy=make_policy(policy))
    apply_ops(directory, ops)
    # Final deep check.
    directory.check_invariants()
    assert directory.valid_count() <= capacity
    assert directory.valid_count() + len(directory.free_list) == capacity


@given(operations)
def test_stats_are_consistent(ops):
    directory = CacheDirectory(4)
    apply_ops(directory, ops)
    stats = directory.stats
    assert stats.hits + stats.misses == stats.lookups
    assert 0.0 <= stats.hit_ratio <= 1.0


@given(operations, st.integers(1, 4))
def test_valid_entries_have_unique_keys(ops, capacity):
    directory = CacheDirectory(capacity)
    apply_ops(directory, ops)
    keys = [entry.dpc_key for entry in directory.valid_entries()]
    assert len(keys) == len(set(keys))
