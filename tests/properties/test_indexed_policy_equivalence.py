"""Property: each keyed replacement policy makes exactly the choices of a
linear scan over every valid entry, under any directory operation sequence.

For each of LRU, LFU, FIFO, TTL-aware and GreedyDual-Size, two directories
receive the same operations: one runs the policy's dpcKey-indexed heap, the
other an oracle that takes the policy's rule as a scan over the candidates
on every call (the scans the policies ran before they shared the index).
Time takes few distinct values (many operations share one ``now``, so
dpcKeys are evicted and reused within one timestamp, and GDS's access
stamps repeat) and may step back.  After every operation both must have
picked the same victims and agree on stats, freeList order, valid rows and
GDS's inflation value.

Random operations rarely bring two rows with equal hit counts but a
different creation and access order to an eviction, which is where LFU's
recency tie-break decides; a pinned example does (see ``TIE_ON_HITS``).

The GDS oracle keeps the scan's per-dpcKey credit cache but drops a row's
credit when the row leaves the valid set, not when the scan picks it.
Dropping it only for victims let an invalidated row's credit pass to the
next row on its dpcKey with the same ``(hits, last_access)`` stamp; and a
non-evicting ``probe`` then keeps the victim's credit, as the index keeps
the victim's key.
"""

from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import ReplacementPolicy, make_policy

NAMES = 10

#: Inserts, lookups and clock ticks dominate so that the directory fills,
#: the index gets built and hits move entries around; the rest are rarer.
OPS = ["insert"] * 4 + ["lookup"] * 4 + ["tick"] * 2 + [
    "invalidate", "invalidate_where", "expire_stale", "flip_valid",
    "audit_and_repair", "rebuild_free_list", "probe",
]

#: A tick moves the clock by one of these; most operations share a ``now``.
TICKS = (1.0, 2.0, -3.0)

#: Fragment sizes, by name: GDS's unit-cost credit is ``L + 1/size``.
SIZES = (10, 17, 40)

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, NAMES - 1),
        st.sampled_from([None, 2.0, 5.0]),
    ),
    min_size=20,
    max_size=150,
)


#: Two rows with one hit each, the older one used last, then an insert
#: into a full two-slot directory: LFU must evict the row used first, not
#: the row created first.
TIE_ON_HITS = [
    ("insert", 0, None),
    ("tick", 0, None),
    ("insert", 1, None),
    ("tick", 0, None),
    ("lookup", 1, None),
    ("tick", 0, None),
    ("lookup", 0, None),
    ("insert", 2, None),
    ("lookup", 0, None),
    ("lookup", 1, None),
]


def describe(entry):
    """A victim as comparable plain data."""
    if entry is None:
        return None
    return (entry.dpc_key, entry.fragment_id.canonical(), entry.last_access)


def unit_cost(entry):
    return 1.0


class Scan(ReplacementPolicy):
    """An oracle: ``choose`` scans every candidate; the hooks do nothing."""

    def __init__(self):
        super().__init__()
        self.victims = []

    def on_insert(self, entry):
        pass

    def on_access(self, entry):
        pass

    def on_remove(self, entry):
        pass

    def select_victim(self, entries, now):
        victim = self.choose(entries, now)
        self.victims.append(describe(victim))
        return victim


class ScanLru(Scan):
    name = "lru"

    def choose(self, entries, now):
        return min(entries, key=lambda e: (e.last_access, e.dpc_key), default=None)


class ScanLfu(Scan):
    name = "lfu"

    def choose(self, entries, now):
        return min(
            entries, key=lambda e: (e.hits, e.last_access, e.dpc_key), default=None
        )


class ScanFifo(Scan):
    name = "fifo"

    def choose(self, entries, now):
        return min(entries, key=lambda e: (e.created_at, e.dpc_key), default=None)


class ScanTtl(Scan):
    name = "ttl"

    def choose(self, entries, now):
        def remaining(entry):
            if entry.ttl is None:
                return (float("inf"), entry.last_access, entry.dpc_key)
            return (entry.created_at + entry.ttl - now, entry.last_access, entry.dpc_key)

        return min(entries, key=remaining, default=None)


class ScanGds(Scan):
    name = "gds"

    def __init__(self, cost_of=None):
        super().__init__()
        self._inflation = 0.0
        self._credit = {}  # dpc_key -> (H value, last seen access stamp)
        self._cost_of = cost_of if cost_of is not None else (
            lambda entry: float(max(entry.size_bytes, 1))
        )

    def on_remove(self, entry):
        self._credit.pop(entry.dpc_key, None)

    def _credit_of(self, entry):
        cached = self._credit.get(entry.dpc_key)
        stamp = (entry.hits, entry.last_access)
        if cached is None or cached[1] != stamp:
            size = float(max(entry.size_bytes, 1))
            value = self._inflation + self._cost_of(entry) / size
            self._credit[entry.dpc_key] = (value, stamp)
            return value
        return cached[0]

    def choose(self, entries, now):
        victim = None
        lowest = float("inf")
        for entry in entries:
            credit = self._credit_of(entry)
            if credit < lowest or (
                credit == lowest
                and victim is not None
                and entry.dpc_key < victim.dpc_key
            ):
                lowest = credit
                victim = entry
        if victim is not None:
            self._inflation = lowest
        return victim


#: Test id -> (policy name, constructor keyword arguments, oracle class).
CASES = {
    "lru": ("lru", {}, ScanLru),
    "lfu": ("lfu", {}, ScanLfu),
    "fifo": ("fifo", {}, ScanFifo),
    "ttl": ("ttl", {}, ScanTtl),
    "gds": ("gds", {}, ScanGds),
    "gds-unit-cost": ("gds", {"cost_of": unit_cost}, ScanGds),
}


def indexed(name, kwargs, slack):
    """The policy under test, recording every victim it returns."""
    base = type(make_policy(name))

    class Indexed(base):
        SLACK = slack

        def __init__(self):
            super().__init__(**kwargs)
            self.victims = []

        def select_victim(self, entries, now):
            victim = super().select_victim(entries, now)
            self.victims.append(describe(victim))
            return victim

    return Indexed()


def apply(directory, op, arg, ttl, now):
    """Run one operation; returns something comparable across directories."""
    if op == "insert":
        entry = directory.insert(
            FragmentID.create("f", {"i": arg}),
            FragmentMetadata(ttl=ttl),
            SIZES[arg % len(SIZES)],
            now,
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
        getattr(directory.policy, "_inflation", None),
    )


@pytest.mark.parametrize("case", sorted(CASES))
@given(
    ops=operations,
    capacity=st.integers(1, 6),
    slack=st.sampled_from([0, ReplacementPolicy.SLACK]),
)
@example(ops=TIE_ON_HITS, capacity=2, slack=0)
@settings(max_examples=400, deadline=None)
def test_indexed_policy_matches_scan_oracle(case, ops, capacity, slack):
    name, kwargs, scan = CASES[case]
    indexed_dir = CacheDirectory(capacity, policy=indexed(name, kwargs, slack))
    oracle = CacheDirectory(capacity, policy=scan(**kwargs))
    now = 0.0
    for op, arg, ttl in ops:
        if op == "tick":
            now = max(0.0, now + TICKS[arg % len(TICKS)])
            continue
        assert apply(indexed_dir, op, arg, ttl, now) == apply(
            oracle, op, arg, ttl, now
        )
        assert state(indexed_dir) == state(oracle)
        policy = indexed_dir.policy
        if policy._heap is not None:
            assert {id(e) for e in policy._entries if e is not None} == set(
                map(id, indexed_dir._valid_by_key.values())
            )
            assert policy._live == len(indexed_dir._valid_by_key)
