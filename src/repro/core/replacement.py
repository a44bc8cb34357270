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
thousand accesses of a shift.  A policy picks a victim; the directory
handles the mechanics of marking the victim invalid and recycling its
dpcKey.

Every policy is one index, :class:`ReplacementPolicy`, and differs only
in how it keys an entry (:meth:`ReplacementPolicy.key`): the victim is the
entry with the lowest (key, dpcKey).  The directory reports each entry's
lifecycle through three hooks -- ``on_insert``, ``on_access`` (a fresh
lookup hit) and ``on_remove`` (the entry left the valid set), which keep
the index current, so no policy scans the entries to pick a victim.  A
policy instance serves one directory.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heappop, heappush, heapreplace
from math import inf, log2
from typing import Iterable, Optional, TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .cache_directory import DirectoryEntry


class ReplacementPolicy:
    """A victim index over dpcKey-indexed slots and a lazy C heap.

    A policy says how to key an entry (:meth:`key`); the victim is the
    entry with the lowest (key, dpcKey).  Each indexed entry has a slot at
    its ``dpc_key`` (a row's dpcKey never changes while it is valid) in
    three lists: the entry, its current key and the generation of its live
    heap record.  The heap holds ``(key, dpc_key, generation)`` records; a
    record is live while its slot still holds an entry and the same
    generation, so a removal just clears the slot and a record that reaches
    the top stale is popped.  A live record's key is a lower bound on its
    entry's current key: a hit that raises the key only updates the slot,
    and a record that reaches the top out of date is re-filed with the
    current key, so each entry costs at most one push per time it reaches
    the top, not one per hit.  A hit that lowers the key files a new record
    (the old one goes stale).  Once the heap holds more than
    ``2 * live + SLACK`` records it is rebuilt from the slots.

    Records are tuples of a key and two ints, which the garbage collector
    stops tracking after its first pass, so a pile of stale records never
    ages into the older generations.  Nothing is kept until the first
    ``select_victim`` call, which builds the index from ``entries``
    (:meth:`_build`) and ignores them after that.  Until then ``_heap`` is
    ``None`` and the hooks do nothing; :attr:`dormant` says so, and the
    directory skips ``on_access`` while it is set, so a directory that
    never fills pays no call per access.
    """

    name = "abstract"

    #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
    #: ``record_eviction``); set by ``CacheDirectory.attach_insight`` so
    #: eviction victims carry per-policy diagnostics.  ``None`` disables.
    insight = None

    #: Records the heap may hold beyond twice the live count before it is
    #: rebuilt.
    SLACK = 32

    #: Whether ``on_access`` does nothing yet, so the directory may skip
    #: it.  Set by :meth:`__init__` and cleared when the first
    #: ``select_victim`` builds the index.  The class default is ``False``
    #: (call the hook): a subclass that never runs :meth:`__init__` keeps
    #: its own state and still receives every hook.
    dormant = False

    def __init__(self) -> None:
        self.dormant = True
        self._heap: Optional[list] = None  # built by the first select_victim
        self._entries: list = []  # dpc_key -> its indexed entry, or None
        self._keys: list = []     # dpc_key -> the entry's current key
        self._gens: list = []     # dpc_key -> the generation of its live record
        self._live = 0            # slots holding an entry

    def key(self, entry: "DirectoryEntry"):
        """The key ``entry`` is filed under; the lowest is evicted first."""
        raise NotImplementedError

    def on_insert(self, entry: "DirectoryEntry") -> None:
        """Hook: ``entry`` was inserted and is now valid; index it."""
        if self._heap is not None:
            self._file(entry, self.key(entry))

    def on_access(self, entry: "DirectoryEntry") -> None:
        """Hook: a lookup hit just moved ``entry.last_access``.

        Notes the entry's new key; re-files it only if the key went down.
        """
        slots = self._entries
        k = entry.dpc_key
        if k < len(slots) and slots[k] is entry:
            key = self.key(entry)
            if key < self._keys[k]:
                self._file(entry, key)
            else:
                self._keys[k] = key

    def on_remove(self, entry: "DirectoryEntry") -> None:
        """Hook: ``entry`` left the valid set; clear its slot, if indexed."""
        slots = self._entries
        k = entry.dpc_key
        if k < len(slots) and slots[k] is entry:
            slots[k] = None
            self._live -= 1

    def _file(self, entry: "DirectoryEntry", key) -> None:
        """Index ``entry`` under ``key`` with a new live record."""
        k = entry.dpc_key
        slots = self._entries
        if k >= len(slots):
            grow = k + 1 - len(slots)
            slots.extend([None] * grow)
            self._keys.extend([0.0] * grow)
            self._gens.extend([0] * grow)
        if slots[k] is None:
            self._live += 1
        slots[k] = entry
        self._keys[k] = key
        gens = self._gens
        gen = gens[k] = gens[k] + 1
        heap = self._heap
        heappush(heap, (key, k, gen))
        if len(heap) > 2 * self._live + self.SLACK:
            keys = self._keys
            heap[:] = [
                (keys[i], i, gens[i]) for i, e in enumerate(slots) if e is not None
            ]
            heapify(heap)

    def _build(self, entries: Iterable["DirectoryEntry"]) -> None:
        """Build ``_heap`` and file every entry under its key."""
        self._heap = []
        key = self.key
        # Filed in ascending key order, each push is O(1).
        for entry in sorted(entries, key=lambda e: (key(e), e.dpc_key)):
            self._file(entry, key(entry))

    def select_victim(
        self, entries: Iterable["DirectoryEntry"], now: float
    ) -> Optional["DirectoryEntry"]:
        """The entry with the lowest (current key, dpcKey), or None.

        The first call builds the index from ``entries`` (:meth:`_build`);
        later calls ignore them.
        """
        heap = self._heap
        if heap is None:
            self._build(entries)
            self.dormant = False
            heap = self._heap
        slots = self._entries
        keys = self._keys
        gens = self._gens
        while heap:
            filed, k, gen = heap[0]
            entry = slots[k]
            if entry is None or gens[k] != gen:
                heappop(heap)
            elif keys[k] != filed:
                heapreplace(heap, (keys[k], k, gen))
            else:
                return entry
        return None

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
    """Evict the least-recently-used entry (ties go to the lower dpcKey)."""

    name = "lru"

    def key(self, entry):
        """The entry's last access."""
        return entry.last_access


class DecayedFrequencyPolicy(ReplacementPolicy):
    """Evict the entry with the lowest decayed access count (LRFU).

    An entry's score is ``sum(2 ** (-age / H))`` over its past accesses
    (Lee et al., 2001), where an access's age is the number of accesses the
    policy has seen since, and the half-life ``H`` is ten accesses per slot,
    TinyLFU's sample size (Einziger et al., 2017).  Accesses are ticks, not
    clock readings: every insert and every lookup hit is one tick.

    Each entry is indexed under the key ``log2(score) + tick / H`` of its
    last access.  Keys compare the way scores do at any common tick, and a
    key only grows (on a hit), so a hit only updates the entry's slot: the
    key its heap record was filed under is a lower bound, refreshed when it
    reaches the top.  An insert is one push and a removal clears the slot
    (see :class:`ReplacementPolicy`).  Ties go to the lower dpcKey.  The
    key depends on the tick, not on the entry alone, so this policy keeps
    its own hooks instead of :meth:`ReplacementPolicy.key`.

    A fragment's history outlives its row: a removed fragment's key goes to
    a FIFO *ghost* of at most ``capacity`` fragment ids, and a re-insert
    within that window resumes the decayed count instead of starting from
    one.  Without it a hot fragment that an update invalidates just before
    its next request would come back as cold as a one-shot fragment.

    As in every policy, nothing is kept until the first
    ``select_victim`` call (a directory that never fills skips the
    dormant ``on_access``).  That call replays one access per entry, in
    LRU order (oldest first), and fixes ``capacity`` to the number of
    entries it indexes, which is the directory's capacity: the first
    selection comes when the freeList runs dry.
    """

    name = "lrfu"

    #: The half-life ``H``, in accesses per directory slot.
    HALF_LIFE_PER_SLOT = 10

    def __init__(self) -> None:
        super().__init__()
        self._ghost: "OrderedDict" = OrderedDict()  # removed id -> its key
        self._capacity = 0
        self._per_tick = 0.0               # 1 / H
        self._tick = 0

    def on_insert(self, entry):
        """Index the new entry, resuming its ghost's count if it has one.

        A resumed entry is filed under its ghost key, a lower bound, and
        then counted as one access (:meth:`on_access`).
        """
        if self._heap is None:
            return
        ghost = self._ghost.pop(entry.fragment_id, None)
        if ghost is None:
            self._tick += 1
            self._file(entry, self._tick * self._per_tick)
        else:
            self._file(entry, ghost)
            self.on_access(entry)

    def on_access(self, entry):
        """Count one access; the entry's heap record stays a lower bound.

        The score is ``2 ** (key - now)``, with ``now`` the new tick over
        ``H``; adding this access's 1 is done in log space, so the key's
        growing tick term never meets a float's exponent limit.
        """
        slots = self._entries
        k = entry.dpc_key
        if k < len(slots) and slots[k] is entry:
            tick = self._tick = self._tick + 1
            now = tick * self._per_tick
            keys = self._keys
            keys[k] = now + log2(1.0 + 2.0 ** (keys[k] - now))

    def on_remove(self, entry):
        """Clear the entry's slot and file its key in the ghost."""
        slots = self._entries
        k = entry.dpc_key
        if k < len(slots) and slots[k] is entry:
            slots[k] = None
            self._live -= 1
            ghost = self._ghost
            ghost[entry.fragment_id] = self._keys[k]
            if len(ghost) > self._capacity:
                ghost.popitem(last=False)

    def _build(self, entries):
        """Replay one access per entry, oldest first; fix ``capacity``."""
        ordered = sorted(entries, key=lambda e: (e.last_access, e.dpc_key))
        self._capacity = len(ordered)
        self._per_tick = 1.0 / (self.HALF_LIFE_PER_SLOT * max(1, len(ordered)))
        self._heap = []
        # Keys ascend in this order, so each push is O(1).
        for entry in ordered:
            self._tick += 1
            self._file(entry, self._tick * self._per_tick)


class LfuPolicy(ReplacementPolicy):
    """Evict the least-frequently-used entry (ties broken by recency)."""

    name = "lfu"

    def key(self, entry):
        """The entry's hit count, then its last access."""
        return (entry.hits, entry.last_access)


class FifoPolicy(ReplacementPolicy):
    """Evict the oldest entry regardless of use."""

    name = "fifo"

    def key(self, entry):
        """The entry's creation time."""
        return entry.created_at


class TtlAwarePolicy(ReplacementPolicy):
    """Evict the entry that expires first (ties broken by recency).

    Entries without a TTL are considered to expire at infinity, so they are
    only chosen when every entry is TTL-less (then in LRU order).  The key
    is the absolute expiry ``created_at + ttl``: at any one ``now`` it
    orders entries as the time left does, without a subtraction that can
    round two distinct expiries together.
    """

    name = "ttl"

    def key(self, entry):
        """The entry's expiry (infinity without a TTL), then its last access."""
        ttl = entry.ttl
        return (inf if ttl is None else entry.created_at + ttl, entry.last_access)


class GreedyDualSizePolicy(ReplacementPolicy):
    """GreedyDual-Size (Cao & Irani 1997): the era's web-caching standard.

    Each entry is keyed by its credit ``H = L + cost/size``, computed at
    insert and at each hit, where ``L`` is an inflation value that rises to
    the victim's credit on every selection.  With cost proportional to
    regeneration work (we use size itself as the proxy: bigger fragments
    cost more to rebuild AND to ship), the policy trades off recency, size,
    and cost in one scalar.  A row's credit lives in its index slot, so it
    leaves with the row.
    """

    name = "gds"

    def __init__(self, cost_of=None) -> None:
        """``cost_of(entry) -> float`` overrides the default size-as-cost."""
        super().__init__()
        self._inflation = 0.0
        self._cost_of = cost_of if cost_of is not None else (
            lambda entry: float(max(entry.size_bytes, 1))
        )

    def key(self, entry):
        """The entry's credit at the current inflation."""
        size = float(max(entry.size_bytes, 1))
        return self._inflation + self._cost_of(entry) / size

    def select_victim(self, entries, now):
        """The entry with the lowest credit; inflate L to it."""
        victim = super().select_victim(entries, now)
        if victim is not None:
            self._inflation = self._keys[victim.dpc_key]
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
