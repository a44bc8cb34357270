"""Cache replacement policies for the BEM's replacement manager.

"A cache replacement manager monitors the size of the cache directory and
selects fragments for replacement when the directory size exceeds some
specified threshold." (§4.3.3)

The paper does not prescribe a policy, so several classic ones are provided
and compared in an ablation bench.  Under a Zipf-skewed stream frequency
beats recency (LFU 0.717 > LRU 0.657 at α=1, 400 fragments, 80 slots),
but pure LFU never forgets: after a popularity shift it stays pinned to
the old favourites.  The directory's default, :class:`DecayedFrequencyPolicy`,
counts accesses with an exponential decay, so it keeps LFU's edge on a
stationary stream (0.731) and recovers LRU's hit ratio within two
thousand accesses of a shift.  A policy sees the candidate directory
entries and picks a victim; the directory handles the mechanics of marking
the victim invalid and recycling its dpcKey.

The directory also reports each entry's lifecycle to its policy through
three hooks -- ``on_insert``, ``on_access`` (a fresh lookup hit) and
``on_remove`` (the entry left the valid set) -- so a policy can keep its
own index instead of scanning every entry per eviction.  LRU and the
decayed-frequency policy do: each keeps a heap, so an insert costs
O(log n), a hit O(1) and an eviction O(log n) (amortized, for LRU) instead
of O(n).  LFU, FIFO, TTL-aware and GreedyDual-Size ignore the hooks and
scan the candidates.  A policy instance serves one directory.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from math import log2
from typing import Iterable, Optional, TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .cache_directory import DirectoryEntry


class ReplacementPolicy:
    """Interface: choose one victim among valid entries."""

    name = "abstract"

    #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
    #: ``record_eviction``); set by ``CacheDirectory.attach_insight`` so
    #: eviction victims carry per-policy diagnostics.  ``None`` disables.
    insight = None

    def select_victim(
        self, entries: Iterable["DirectoryEntry"], now: float
    ) -> Optional["DirectoryEntry"]:
        """Choose one entry to evict, or None if no candidates."""
        raise NotImplementedError

    def on_insert(self, entry: "DirectoryEntry") -> None:
        """Hook: ``entry`` was inserted and is now valid.  No-op here."""

    def on_access(self, entry: "DirectoryEntry") -> None:
        """Hook: a lookup hit just moved ``entry.last_access``.  No-op here."""

    def on_remove(self, entry: "DirectoryEntry") -> None:
        """Hook: ``entry`` left the directory's valid set.  No-op here."""

    def record_victim(self, victim: "DirectoryEntry", now: float) -> None:
        """Report one eviction's diagnostics to the attached insight layer.

        Called by the directory just before the victim is invalidated, so
        ``last_access``/``hits`` still reflect the entry's lived history.
        The idle time (now minus last access) is the number capacity
        diagnosis cares about: victims evicted while recently hot indicate
        a cache that is genuinely too small, victims idle for ages are free
        to drop.
        """
        if self.insight is not None:
            self.insight.record_eviction(
                self.name,
                max(0.0, now - victim.last_access),
                victim.hits,
                victim.size_bytes,
            )


class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used entry (ties go to the lower dpcKey).

    The victim is the top of a heap of ``(last_access, dpc_key, seq, entry)``
    records, one live record per valid entry, kept by the lifecycle hooks.
    A record counts only while ``_live[entry]`` is that very record: a
    removal just forgets the entry, and its record is dropped when it
    reaches the top.  A record's key is a lower bound on its entry's key,
    because a hit that moves ``last_access`` forward leaves the record in
    place; a record that reaches the top with an out-of-date key is pushed
    back with the current one, so the first up-to-date record on top is the
    exact minimum.  Each entry therefore costs at most one push per time it
    reaches the top, not one per hit.  Once the heap holds more than twice
    as many records as there are live entries it is rebuilt from them.
    ``seq`` breaks ties between records with equal keys, so entries are
    never compared.

    The index is built from ``entries`` on the first ``select_victim`` call
    and ignores ``entries`` after that.  Until then the hooks do nothing, so
    a directory that never fills pays one no-op call per access.
    """

    name = "lru"

    #: Records the heap may hold beyond twice the live count before it is
    #: rebuilt.
    SLACK = 32

    def __init__(self) -> None:
        self._heap: Optional[list] = None  # built by the first select_victim
        self._live: dict = {}  # entry -> its current heap record
        self._seq = count()

    def _record(self, entry: "DirectoryEntry") -> tuple:
        return (entry.last_access, entry.dpc_key, next(self._seq), entry)

    def _push(self, entry: "DirectoryEntry") -> None:
        live = self._live
        record = live[entry] = self._record(entry)
        heap = self._heap
        heappush(heap, record)
        if len(heap) > 2 * len(live) + self.SLACK:
            heap[:] = live.values()
            heapify(heap)

    def on_insert(self, entry):
        """Index the new entry at its creation time."""
        if self._heap is not None:
            self._push(entry)

    def on_access(self, entry):
        """Re-index the entry only if its last access moved back in time."""
        if self._heap is not None:
            record = self._live.get(entry)
            if record is not None and entry.last_access < record[0]:
                self._push(entry)

    def on_remove(self, entry):
        """Forget the entry; its record goes stale."""
        if self._heap is not None:
            self._live.pop(entry, None)

    def select_victim(self, entries, now):
        """Pick the entry with the oldest last access (lowest dpcKey on ties)."""
        heap = self._heap
        live = self._live
        if heap is None:
            for entry in entries:
                live[entry] = self._record(entry)
            heap = self._heap = list(live.values())
            heapify(heap)
        while heap:
            record = heap[0]
            entry = record[3]
            if live.get(entry) is not record:
                heappop(heap)
            elif entry.last_access != record[0]:
                record = live[entry] = self._record(entry)
                heapreplace(heap, record)
            else:
                return entry
        return None


class DecayedFrequencyPolicy(ReplacementPolicy):
    """Evict the entry with the lowest decayed access count (LRFU).

    An entry's score is ``sum(2 ** (-age / H))`` over its past accesses
    (Lee et al., 2001), where an access's age is the number of accesses the
    policy has seen since, and the half-life ``H`` is ten accesses per slot,
    TinyLFU's sample size (Einziger et al., 2017).  Accesses are ticks, not
    clock readings: every insert and every lookup hit is one tick.

    Each entry is indexed under the key ``log2(score) + tick / H`` of its
    last access.  Keys compare the way scores do at any common tick, and a
    key only grows (on a hit), so, as in :class:`LruPolicy`, a hit leaves
    the entry's heap position alone: the key it is filed under is a lower
    bound, refreshed when it reaches the top.  The heap is an array with a
    position map, so a removal takes its entry out at once in O(log n):
    the heap holds exactly the live entries, and serving never frees
    records in bulk nor rebuilds anything.  Ties go to the lower dpcKey.

    A fragment's history outlives its row: a removed fragment's key goes to
    a FIFO *ghost* of at most ``capacity`` fragment ids, and a re-insert
    within that window resumes the decayed count instead of starting from
    one.  Without it a hot fragment that an update invalidates just before
    its next request would come back as cold as a one-shot fragment.

    As in :class:`LruPolicy`, nothing is kept until the first
    ``select_victim`` call (a directory that never fills pays one no-op
    call per access).  That call replays one access per entry, in LRU order
    (oldest first), and fixes ``capacity`` to the number of entries it
    indexes, which is the directory's capacity: the first selection comes
    when the freeList runs dry.
    """

    name = "lrfu"

    #: The half-life ``H``, in accesses per directory slot.
    HALF_LIFE_PER_SLOT = 10

    def __init__(self) -> None:
        self._keys: Optional[list] = None  # heap of index keys, built lazily
        self._entries: list = []           # the entry at each heap position
        self._at: dict = {}                # entry -> its heap position
        self._key: dict = {}               # entry -> its current key
        self._ghost: "OrderedDict" = OrderedDict()  # removed id -> its key
        self._capacity = 0
        self._per_tick = 0.0               # 1 / H
        self._tick = 0

    def _accessed(self, key: float) -> float:
        """``key`` after one more access, at the next tick.

        The score is ``2 ** (key - now)``, with ``now`` the new tick over
        ``H``; adding this access's 1 is done in log space, so the key's
        growing tick term never meets a float's exponent limit.
        """
        self._tick += 1
        now = self._tick * self._per_tick
        return now + log2(1.0 + 2.0 ** (key - now))

    def _sift_up(self, i: int, key: float, entry: "DirectoryEntry") -> None:
        """File ``entry`` under ``key`` at position ``i`` or above it; the
        parents it passes move down a level."""
        keys = self._keys
        entries = self._entries
        at = self._at
        while i:
            parent = (i - 1) >> 1
            pkey = keys[parent]
            if pkey < key or (pkey == key and entries[parent].dpc_key < entry.dpc_key):
                break
            keys[i] = pkey
            moved = entries[i] = entries[parent]
            at[moved] = i
            i = parent
        keys[i] = key
        entries[i] = entry
        at[entry] = i

    def _sift_down(self, i: int, key: float, entry: "DirectoryEntry") -> None:
        """File ``entry`` under ``key`` where position ``i``'s entry was.

        As in :mod:`heapq`, the smaller child moves up all the way to a
        leaf, and ``entry`` then climbs back from there: the entry placed
        here is usually the heap's last leaf, so this takes one comparison
        per level instead of two.  The climb may pass ``i``, which serves a
        removal whose replacement belongs above the hole.
        """
        keys = self._keys
        entries = self._entries
        at = self._at
        n = len(keys)
        child = 2 * i + 1
        while child < n:
            right = child + 1
            if right < n:
                ckey = keys[child]
                rkey = keys[right]
                if rkey < ckey or (
                    rkey == ckey and entries[right].dpc_key < entries[child].dpc_key
                ):
                    child = right
            keys[i] = keys[child]
            moved = entries[i] = entries[child]
            at[moved] = i
            i = child
            child = 2 * i + 1
        self._sift_up(i, key, entry)

    def on_insert(self, entry):
        """Index the new entry, resuming its ghost's count if it has one."""
        keys = self._keys
        if keys is None:
            return
        ghost = self._ghost.pop(entry.fragment_id, None)
        if ghost is None:
            self._tick += 1
            key = self._tick * self._per_tick
        else:
            key = self._accessed(ghost)
        self._key[entry] = key
        keys.append(key)
        self._entries.append(entry)
        self._sift_up(len(keys) - 1, key, entry)

    def on_access(self, entry):
        """Count the hit; the heap position stays a lower bound."""
        current = self._key
        key = current.get(entry)
        if key is not None:
            current[entry] = self._accessed(key)

    def on_remove(self, entry):
        """Take the entry out of the heap and file its key in the ghost."""
        i = self._at.pop(entry, None)
        if i is None:
            return
        ghost = self._ghost
        ghost[entry.fragment_id] = self._key.pop(entry)
        if len(ghost) > self._capacity:
            ghost.popitem(last=False)
        keys = self._keys
        key = keys.pop()
        last = self._entries.pop()
        if i < len(keys):
            self._sift_down(i, key, last)

    def select_victim(self, entries, now):
        """Pick the entry with the lowest decayed score (lowest dpcKey on ties)."""
        keys = self._keys
        if keys is None:
            # Keys ascend in this order, so the list is already a heap.
            ordered = sorted(entries, key=lambda e: (e.last_access, e.dpc_key))
            self._capacity = len(ordered)
            self._per_tick = 1.0 / (self.HALF_LIFE_PER_SLOT * max(1, len(ordered)))
            keys = self._keys = []
            for i, entry in enumerate(ordered):
                self._tick += 1
                self._at[entry] = i
                self._key[entry] = self._tick * self._per_tick
                keys.append(self._key[entry])
            self._entries = ordered
        current = self._key
        while keys:
            entry = self._entries[0]
            key = current[entry]
            if key == keys[0]:
                return entry
            self._sift_down(0, key, entry)
        return None


class LfuPolicy(ReplacementPolicy):
    """Evict the least-frequently-used entry (ties broken by recency)."""

    name = "lfu"

    def select_victim(self, entries, now):
        """Pick the entry with the fewest hits (recency tiebreak)."""
        return min(
            entries, key=lambda e: (e.hits, e.last_access, e.dpc_key), default=None
        )


class FifoPolicy(ReplacementPolicy):
    """Evict the oldest entry regardless of use."""

    name = "fifo"

    def select_victim(self, entries, now):
        """Pick the entry created earliest."""
        return min(entries, key=lambda e: (e.created_at, e.dpc_key), default=None)


class TtlAwarePolicy(ReplacementPolicy):
    """Evict the entry closest to (or past) its TTL expiry.

    Entries without a TTL are considered to expire at infinity, so they are
    only chosen when every entry is TTL-less (then falls back to LRU order).
    """

    name = "ttl"

    def select_victim(self, entries, now):
        """Pick the entry nearest to (or past) TTL expiry."""
        def remaining(entry):
            if entry.ttl is None:
                return (float("inf"), entry.last_access, entry.dpc_key)
            return (entry.created_at + entry.ttl - now, entry.last_access, entry.dpc_key)

        return min(entries, key=remaining, default=None)


class GreedyDualSizePolicy(ReplacementPolicy):
    """GreedyDual-Size (Cao & Irani 1997): the era's web-caching standard.

    Each entry carries a credit ``H = L + cost/size`` where ``L`` is an
    inflation value that rises to the victim's credit on every eviction.
    With cost proportional to regeneration work (we use size itself as the
    proxy: bigger fragments cost more to rebuild AND to ship), the policy
    trades off recency, size, and cost in one scalar.  Uses the entry's
    ``hits`` and ``size_bytes`` plus an internal inflation accumulator —
    no extra per-entry state is required in the directory.
    """

    name = "gds"

    def __init__(self, cost_of=None) -> None:
        """``cost_of(entry) -> float`` overrides the default size-as-cost."""
        self._inflation = 0.0
        self._credit: dict = {}  # dpc_key -> (H value, last seen access stamp)
        self._cost_of = cost_of if cost_of is not None else (
            lambda entry: float(max(entry.size_bytes, 1))
        )

    def _credit_of(self, entry) -> float:
        """Current H value, refreshed on access (hits/last_access moved)."""
        cached = self._credit.get(entry.dpc_key)
        stamp = (entry.hits, entry.last_access)
        if cached is None or cached[1] != stamp:
            size = float(max(entry.size_bytes, 1))
            value = self._inflation + self._cost_of(entry) / size
            self._credit[entry.dpc_key] = (value, stamp)
            return value
        return cached[0]

    def select_victim(self, entries, now):
        """Evict the entry with the lowest credit; inflate L to it."""
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
            self._credit.pop(victim.dpc_key, None)
        return victim


_POLICIES = {
    policy.name: policy
    for policy in (
        DecayedFrequencyPolicy, LruPolicy, LfuPolicy, FifoPolicy,
        TtlAwarePolicy, GreedyDualSizePolicy,
    )
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name ('lrfu', 'lru', 'lfu', 'fifo', 'ttl', 'gds')."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            "unknown replacement policy %r (expected one of %s)"
            % (name, sorted(_POLICIES))
        ) from None
