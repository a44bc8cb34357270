"""Single-pass reuse-distance profiling: hit ratio vs. slots, no reruns.

Mattson's classic result (Mattson et al. 1970): for a stack algorithm like
LRU, one pass over the access stream yields the hit ratio of *every* cache
size at once.  An access whose **stack distance** (number of distinct
fragments touched since its previous access) is ``d`` hits in any LRU
cache of more than ``d`` slots and misses in any smaller one, so the
histogram of distances integrates into the full hit-ratio-vs-``num_slots``
curve — the counterfactual the capacity-planning question "would more DPC
slots have helped?" needs, without re-running the workload per size.

Invalidation is the wrinkle: the paper's directory *invalidates in place*
(§4.3.3 flips ``isValid`` and recycles the dpcKey; content leaves, the
recency order does not change for anyone else).  The profiler models
exactly that — an invalidated fragment keeps its stack position but is
marked stale, and its next access is a miss at **every** size.  Under this
stale-in-place model LRU retains the inclusion property (the content of a
``C``-slot cache is the valid subset of the top-``C`` stack positions for
every ``C``), so the single-pass prediction is *exact*, not an
approximation: :func:`simulate_lru` replays the same event stream through
a real fixed-size LRU and the property tests assert equality for every
small slot count.

Stack distances are counted with a Fenwick (binary indexed) tree over
access timestamps — ``O(log n)`` per access — the standard reuse-distance
technique (Almási, Caşcaval & Padua 2002).  The counting is **deferred**:
the serve-path hooks only append to an event log (one list append per
lookup, which is what keeps the insight layer under its <5% overhead
gate), and the Fenwick folding runs incrementally the first time a
reading method needs the histogram.  Total work is identical; it just
happens at diagnosis time instead of inside the request loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

#: Event-stream kinds recorded in the profiler's log.
EVENT_KINDS = ("access", "invalidate")


class _FenwickTree:
    """Prefix-sum counts over 1-based positions, grown by appending.

    A Fenwick cell ``tree[p]`` holds the sum of raw values over
    ``(p - lowbit(p), p]``, so a freshly appended position (raw value 0)
    cannot simply be zero-filled: its cell must be seeded with the sum of
    the lower positions its range covers, all of which already exist.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self) -> None:
        self._tree: List[int] = [0]  # 1-based; slot 0 unused
        self._size = 0

    def _append(self) -> None:
        position = self._size + 1
        lowbit = position & (-position)
        self._tree.append(self.prefix(position - 1) - self.prefix(position - lowbit))
        self._size = position

    def add(self, position: int, delta: int) -> None:
        """Add ``delta`` at ``position`` (1-based), growing as needed."""
        while self._size < position:
            self._append()
        while position <= self._size:
            self._tree[position] += delta
            position += position & (-position)

    def prefix(self, position: int) -> int:
        """Sum of values at positions ``1..position``."""
        if position > self._size:
            position = self._size
        total = 0
        while position > 0:
            total += self._tree[position]
            position -= position & (-position)
        return total


class ReuseDistanceProfiler:
    """One-pass Mattson profiler over the directory's access stream.

    Feed it via :meth:`on_access` (one call per directory lookup) and
    :meth:`on_invalidate` (one call per content invalidation — TTL, data
    change, quarantine; capacity evictions are *not* events, they are what
    the counterfactual varies).  Read the result via :meth:`curve` /
    :meth:`predicted_hits`.

    Feeding is O(1) — a log append — and reading folds the un-processed
    log suffix through the Fenwick counter first, so interleaving feeds
    and reads stays correct (and each event is folded exactly once).

    With ``keep_events=True`` the replayable event stream is retained so
    :func:`simulate_lru` can re-run it for validation (the doctor's smoke
    check does exactly that at small slot counts).
    """

    def __init__(self, keep_events: bool = False) -> None:
        self._log: List[Tuple[str, Hashable]] = []  # raw feed, folded lazily
        self._folded = 0                            # log prefix already folded
        self._clockhand = 0                         # accesses so far (1-based)
        self._last_access: Dict[Hashable, int] = {}  # fragment -> access stamp
        self._stale: set = set()                    # invalidated since last access
        self._tree = _FenwickTree()                 # marks most-recent stamps
        self._histogram: Dict[int, int] = {}
        self._cold_misses = 0
        self._stale_misses = 0
        self._events: Optional[List[Tuple[str, Hashable]]] = (
            [] if keep_events else None
        )

    # -- feeding ------------------------------------------------------------

    def on_access(self, fragment_id: Hashable) -> None:
        """One directory lookup for ``fragment_id`` (hit or miss alike)."""
        self._log.append(("access", fragment_id))

    def on_invalidate(self, fragment_id: Hashable) -> None:
        """Content invalidation (TTL / data change / quarantine) in place."""
        self._log.append(("invalidate", fragment_id))

    # -- folding ------------------------------------------------------------

    def _fold(self) -> None:
        """Fold the pending log suffix into the stack-distance state."""
        log = self._log
        if self._folded == len(log):
            return
        last_access, stale, tree = self._last_access, self._stale, self._tree
        histogram, events = self._histogram, self._events
        clockhand = self._clockhand
        for kind, fragment_id in log[self._folded:]:
            if kind == "access":
                if events is not None:
                    events.append(("access", fragment_id))
                clockhand += 1
                stamp = last_access.get(fragment_id)
                if stamp is None:
                    self._cold_misses += 1
                else:
                    if fragment_id in stale:
                        # Stale-in-place: the content is gone at every
                        # size, but the fragment still occupied its
                        # recency position.
                        stale.discard(fragment_id)
                        self._stale_misses += 1
                    else:
                        # Fragments whose most-recent access is newer than
                        # ours sit above us in the stack; their count is
                        # our depth.
                        distance = len(last_access) - tree.prefix(stamp)
                        histogram[distance] = histogram.get(distance, 0) + 1
                    tree.add(stamp, -1)
                last_access[fragment_id] = clockhand
                tree.add(clockhand, 1)
            else:
                # Invalidations of never-accessed fragments are irrelevant
                # to the recency stack (and to the replay stream).
                if fragment_id in last_access:
                    if events is not None:
                        events.append(("invalidate", fragment_id))
                    stale.add(fragment_id)
        self._clockhand = clockhand
        self._folded = len(log)

    # -- reading ------------------------------------------------------------

    @property
    def histogram(self) -> Dict[int, int]:
        """Stack distance -> number of accesses observing it (finite = reuse)."""
        self._fold()
        return self._histogram

    @property
    def cold_misses(self) -> int:
        """First-ever accesses (infinite stack distance)."""
        self._fold()
        return self._cold_misses

    @property
    def stale_misses(self) -> int:
        """Reuses of invalidated-in-place fragments (miss at every size)."""
        self._fold()
        return self._stale_misses

    @property
    def events(self) -> Optional[List[Tuple[str, Hashable]]]:
        """The replayable event stream (``None`` unless ``keep_events``)."""
        self._fold()
        return self._events

    @property
    def accesses(self) -> int:
        """Total accesses profiled."""
        self._fold()
        return self._clockhand

    @property
    def distinct_fragments(self) -> int:
        """Distinct fragments seen."""
        self._fold()
        return len(self._last_access)

    def max_useful_slots(self) -> int:
        """Smallest size at which the curve flattens (max distance + 1)."""
        if not self.histogram:
            return 1
        return max(self._histogram) + 1

    def predicted_hits(self, num_slots: int) -> int:
        """Exact hit count an LRU directory of ``num_slots`` would score."""
        return sum(
            count
            for distance, count in self.histogram.items()
            if distance < num_slots
        )

    def predicted_hit_ratio(self, num_slots: int) -> float:
        """Counterfactual hit ratio at ``num_slots`` (0.0 on no traffic)."""
        if self.accesses == 0:
            return 0.0
        return self.predicted_hits(num_slots) / self._clockhand

    def curve(self, slot_counts: Iterable[int]) -> List[Tuple[int, float]]:
        """``(num_slots, predicted hit ratio)`` points, one per size."""
        return [
            (num_slots, self.predicted_hit_ratio(num_slots))
            for num_slots in slot_counts
        ]

    def asymptotic_hit_ratio(self) -> float:
        """The ceiling: hit ratio with unbounded slots (no capacity misses).

        Cold and stale-in-place misses remain — no amount of capacity buys
        them back — which is why this is typically well below 1.0 even for
        a perfectly sized cache.
        """
        if self.accesses == 0:
            return 0.0
        return sum(self._histogram.values()) / self._clockhand

    def recommend_slots(self, fraction: float = 0.95) -> int:
        """Smallest slot count achieving ``fraction`` of the asymptote.

        The capacity-planning readout: beyond this size the curve has
        flattened and extra slots buy almost nothing.
        """
        target = self.asymptotic_hit_ratio() * fraction
        best = self.max_useful_slots()
        # Walk sizes in ascending order of observed distance boundaries;
        # the curve only changes at distance+1 steps.
        boundaries = sorted(distance + 1 for distance in self._histogram)
        for num_slots in boundaries:
            if self.predicted_hit_ratio(num_slots) >= target:
                return num_slots
        return best

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows under ``insight.mattson.*``."""
        return [
            ("insight.mattson.accesses", self.accesses),
            ("insight.mattson.distinct_fragments", self.distinct_fragments),
            ("insight.mattson.cold_misses", self.cold_misses),
            ("insight.mattson.stale_misses", self.stale_misses),
        ]


def simulate_lru(
    events: Iterable[Tuple[str, Hashable]], num_slots: int
) -> Tuple[int, int]:
    """Brute-force oracle: replay events through a real ``num_slots`` LRU.

    Returns ``(hits, accesses)``.  The cache honors the directory's
    stale-in-place semantics: invalidation marks a resident fragment stale
    without surrendering its slot or recency, exactly like §4.3.3 flips
    ``isValid`` while the slot bytes linger.  Used by the property tests
    and ``repro doctor --smoke`` to confirm the profiler's single-pass
    prediction is exact.
    """
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    cache: "OrderedDict[Hashable, bool]" = OrderedDict()  # fragment -> is_valid
    hits = accesses = 0
    for kind, fragment_id in events:
        if kind == "access":
            accesses += 1
            resident = fragment_id in cache
            if resident and cache[fragment_id]:
                hits += 1
                cache.move_to_end(fragment_id)
                continue
            # Miss: stale-resident fragments refresh in place; new ones
            # take a slot, evicting the LRU victim when full.
            cache[fragment_id] = True
            cache.move_to_end(fragment_id)
            if not resident and len(cache) > num_slots:
                cache.popitem(last=False)
        elif kind == "invalidate":
            if fragment_id in cache:
                cache[fragment_id] = False
        else:
            raise ValueError("unknown event kind %r" % (kind,))
    return hits, accesses
