"""Cache replacement policies for the BEM's replacement manager.

"A cache replacement manager monitors the size of the cache directory and
selects fragments for replacement when the directory size exceeds some
specified threshold." (§4.3.3)

The paper does not prescribe a policy, so several classic ones are provided
and compared in an ablation bench (LRU wins under Zipf-skewed request
streams, as expected).  A policy sees the candidate directory entries and
picks a victim; the directory handles the mechanics of marking the victim
invalid and recycling its dpcKey.

The directory also reports each entry's lifecycle to its policy through
three hooks -- ``on_insert``, ``on_access`` (a fresh lookup hit) and
``on_remove`` (the entry left the valid set) -- so a policy can keep its
own index instead of scanning every entry per eviction.  LRU does: it keeps
a heap ordered by ``(last_access, dpc_key)``, so an insert costs O(log n),
a hit O(1) and an eviction amortized O(log n) instead of O(n).  LFU, FIFO,
TTL-aware and GreedyDual-Size ignore the hooks and scan the candidates.  A
policy instance serves one directory.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
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
        LruPolicy, LfuPolicy, FifoPolicy, TtlAwarePolicy, GreedyDualSizePolicy
    )
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name ('lru', 'lfu', 'fifo', 'ttl', 'gds')."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            "unknown replacement policy %r (expected one of %s)"
            % (name, sorted(_POLICIES))
        ) from None
