"""Property: the heap-indexed LRU policy makes exactly the choices of a
linear scan over every valid entry, under any directory operation sequence.

Two directories receive the same operations: one runs :class:`LruPolicy`,
the other an oracle that takes ``min`` over the candidates on every call.
Time takes few distinct values (many operations share one ``now``, so
dpcKeys are evicted and reused within one timestamp) and may step back.
After every operation both must have picked the same victims and agree on
stats, freeList order and valid rows.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import LruPolicy, ReplacementPolicy

NAMES = 10

#: Inserts, lookups and clock ticks dominate so that the directory fills,
#: the index gets built and hits move entries around; the rest are rarer.
OPS = ["insert"] * 4 + ["lookup"] * 4 + ["tick"] * 2 + [
    "invalidate", "invalidate_where", "expire_stale", "flip_valid",
    "audit_and_repair", "rebuild_free_list", "probe",
]

#: A tick moves the clock by one of these; most operations share a ``now``.
TICKS = (1.0, 2.0, -3.0)

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, NAMES - 1),
        st.sampled_from([None, 2.0, 5.0]),
    ),
    min_size=20,
    max_size=150,
)


def describe(entry):
    """A victim as comparable plain data."""
    if entry is None:
        return None
    return (entry.dpc_key, entry.fragment_id.canonical(), entry.last_access)


class IndexedLru(LruPolicy):
    """The policy under test, recording every victim it returns."""

    def __init__(self, slack):
        super().__init__()
        self.SLACK = slack
        self.victims = []

    def select_victim(self, entries, now):
        victim = super().select_victim(entries, now)
        self.victims.append(describe(victim))
        return victim


class ScanLru(ReplacementPolicy):
    """The oracle: today's LRU rule as a scan over every candidate."""

    name = "lru"

    def __init__(self):
        self.victims = []

    def select_victim(self, entries, now):
        victim = min(entries, key=lambda e: (e.last_access, e.dpc_key), default=None)
        self.victims.append(describe(victim))
        return victim


def apply(directory, op, arg, ttl, now):
    """Run one operation; returns something comparable across directories."""
    if op == "insert":
        entry = directory.insert(
            FragmentID.create("f", {"i": arg}), FragmentMetadata(ttl=ttl), 10, now
        )
        return entry.dpc_key
    if op == "lookup":
        return describe(directory.lookup(FragmentID.create("f", {"i": arg}), now))
    if op == "invalidate":
        return directory.invalidate(FragmentID.create("f", {"i": arg}))
    if op == "invalidate_where":
        return directory.invalidate_where(lambda e: e.dpc_key % 3 == arg % 3)
    if op == "expire_stale":
        return directory.expire_stale(now)
    if op == "flip_valid":
        # The faults.injectors corruption: clear the flag, skip bookkeeping.
        valid = sorted(
            (e for e in directory.valid_entries() if e.is_valid),
            key=lambda e: e.dpc_key,
        )
        if valid:
            valid[arg % len(valid)].is_valid = False
        return len(valid)
    if op == "audit_and_repair":
        return asdict(directory.audit_and_repair())
    if op == "rebuild_free_list":
        return directory.rebuild_free_list()
    if op == "probe":
        return describe(
            directory.policy.select_victim(directory._valid_by_key.values(), now)
        )
    raise AssertionError(op)


def state(directory):
    """Everything the two directories must agree on."""
    return (
        asdict(directory.stats),
        list(directory.free_list._keys),
        sorted(
            (e.dpc_key, e.fragment_id.canonical(), e.is_valid, e.last_access)
            for e in directory.valid_entries()
        ),
        directory.policy.victims,
    )


@given(operations, st.integers(1, 6), st.sampled_from([0, LruPolicy.SLACK]))
@settings(max_examples=400, deadline=None)
def test_indexed_lru_matches_scan_oracle(ops, capacity, slack):
    indexed = CacheDirectory(capacity, policy=IndexedLru(slack))
    oracle = CacheDirectory(capacity, policy=ScanLru())
    now = 0.0
    for op, arg, ttl in ops:
        if op == "tick":
            now = max(0.0, now + TICKS[arg % len(TICKS)])
            continue
        assert apply(indexed, op, arg, ttl, now) == apply(oracle, op, arg, ttl, now)
        assert state(indexed) == state(oracle)
        if indexed.policy._heap is not None:
            assert {id(e) for e in indexed.policy._entries if e is not None} == set(
                map(id, indexed._valid_by_key.values())
            )
