"""Property: the heap-indexed decayed-frequency policy makes exactly the
choices of a scan that scores every entry from its full access history,
under any directory operation sequence.

Two directories receive the same operations: one runs
:class:`DecayedFrequencyPolicy`, the other an oracle that keeps every
entry's access ticks (and a removed fragment's ticks in a FIFO ghost of
``capacity`` ids) and, on every call, sums ``2 ** (-age / H)`` over them
for each candidate.  Lookups hit, expire and miss; inserts evict and
re-insert fragments that were invalidated, expired or evicted, inside and
outside the ghost's window.  After every operation both must have picked
the same victims and agree on stats, freeList order and valid rows; the
policy's keys must match the oracle's scores and its ghost must hold at
most ``capacity`` ids.  The heap's live records must name exactly the
valid entries, one each, filed under lower bounds of their current keys,
and the heap may hold at most ``2 * live + SLACK`` records.

The heap's records hold no object reference, so after a collection the
garbage collector tracks none of them, under either indexed policy.
"""

import gc
from collections import OrderedDict
from dataclasses import asdict
from math import log2

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import (
    DecayedFrequencyPolicy,
    LruPolicy,
    ReplacementPolicy,
)

NAMES = 12

#: Inserts and lookups dominate so that the directory fills, the index gets
#: built and scores diverge; the rest are rarer.
OPS = ["insert"] * 5 + ["lookup"] * 5 + ["tick"] * 2 + [
    "invalidate", "invalidate_where", "expire_stale", "flip_valid",
    "audit_and_repair", "probe",
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
    max_size=200,
)


def describe(entry):
    """A victim as comparable plain data."""
    if entry is None:
        return None
    return (entry.dpc_key, entry.fragment_id.canonical(), entry.last_access)


class IndexedPolicy(DecayedFrequencyPolicy):
    """The policy under test, recording every victim it returns."""

    def __init__(self):
        super().__init__()
        self.victims = []

    def select_victim(self, entries, now):
        victim = super().select_victim(entries, now)
        self.victims.append(describe(victim))
        return victim


class ScanPolicy(ReplacementPolicy):
    """The oracle: every entry's access ticks, summed on every call."""

    name = "lrfu"

    def __init__(self):
        self.victims = []
        self.ticks = None        # entry -> its access ticks, once started
        self.ghost = OrderedDict()
        self.capacity = 0
        self.half_life = 1
        self.tick = 0

    def on_insert(self, entry):
        if self.ticks is not None:
            self.tick += 1
            past = self.ghost.pop(entry.fragment_id, [])
            self.ticks[entry] = past + [self.tick]

    def on_access(self, entry):
        if self.ticks is not None and entry in self.ticks:
            self.tick += 1
            self.ticks[entry].append(self.tick)

    def on_remove(self, entry):
        if self.ticks is not None and entry in self.ticks:
            self.ghost[entry.fragment_id] = self.ticks.pop(entry)
            while len(self.ghost) > self.capacity:
                self.ghost.popitem(last=False)

    def score(self, entry):
        return sum(
            2.0 ** ((t - self.tick) / self.half_life) for t in self.ticks[entry]
        )

    def select_victim(self, entries, now):
        entries = list(entries)
        if self.ticks is None:
            self.ticks = {}
            for entry in sorted(entries, key=lambda e: (e.last_access, e.dpc_key)):
                self.tick += 1
                self.ticks[entry] = [self.tick]
            self.capacity = len(entries)
            self.half_life = DecayedFrequencyPolicy.HALF_LIFE_PER_SLOT * max(
                1, len(entries)
            )
        victim = min(
            entries, key=lambda e: (self.score(e), e.dpc_key), default=None
        )
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


def check_index(policy, oracle, live):
    """The policy's structures against the oracle and the valid set."""
    assert len(policy._ghost) <= policy._capacity
    assert list(policy._ghost) == list(oracle.ghost)
    if policy._heap is None:
        assert not policy._entries and not policy._live and not policy._ghost
        return
    heap, slots, keys, gens = policy._heap, policy._entries, policy._keys, policy._gens
    for i in range(1, len(heap)):
        assert heap[(i - 1) // 2] <= heap[i]
    # Live records correspond one-to-one to the valid entries.
    records = [
        (filed, k) for filed, k, gen in heap if slots[k] is not None and gens[k] == gen
    ]
    assert sorted(k for _, k in records) == sorted(e.dpc_key for e in live)
    assert all(slots[e.dpc_key] is e for e in live)
    assert policy._live == len(live)
    # Every filed key is a lower bound on its entry's current key.
    assert all(filed <= keys[k] for filed, k in records)
    assert len(heap) <= 2 * len(live) + policy.SLACK
    assert policy._tick == oracle.tick
    now = oracle.tick / oracle.half_life
    scores = {(e.fragment_id, e.dpc_key): oracle.score(e) for e in oracle.ticks}
    for entry in live:
        expected = log2(scores[entry.fragment_id, entry.dpc_key]) + now
        current = keys[entry.dpc_key]
        assert abs(current - expected) <= 1e-9 * max(1.0, abs(expected))


@given(operations, st.integers(1, 6))
@settings(max_examples=400, deadline=None)
def test_indexed_policy_matches_scan_oracle(ops, capacity):
    indexed = CacheDirectory(capacity, policy=IndexedPolicy())
    oracle = CacheDirectory(capacity, policy=ScanPolicy())
    now = 0.0
    for op, arg, ttl in ops:
        if op == "tick":
            now = max(0.0, now + TICKS[arg % len(TICKS)])
            continue
        assert apply(indexed, op, arg, ttl, now) == apply(oracle, op, arg, ttl, now)
        assert state(indexed) == state(oracle)
        check_index(indexed.policy, oracle.policy, indexed._valid_by_key.values())


@given(operations, st.sampled_from([DecayedFrequencyPolicy, LruPolicy]))
@settings(max_examples=50, deadline=None)
def test_heap_records_are_untracked_after_a_collection(ops, policy_type):
    capacity = 4
    directory = CacheDirectory(capacity, policy=policy_type())
    for i in range(capacity + 1):  # the last insert evicts: the heap is built
        directory.insert(FragmentID.create("g", {"i": i}), FragmentMetadata(), 10, 0.0)
    now = 0.0
    for op, arg, ttl in ops:
        if op == "tick":
            now = max(0.0, now + TICKS[arg % len(TICKS)])
        else:
            apply(directory, op, arg, ttl, now)
    directory.insert(FragmentID.create("h"), FragmentMetadata(), 10, now)
    gc.collect()
    heap = directory.policy._heap
    assert heap
    assert not any(gc.is_tracked(record) for record in heap)
