"""The fragment lifecycle ledger: every miss gets exactly one cause.

A cache directory can report *that* it missed; operating one requires
knowing *why*.  The paper's BEM produces misses through four different
mechanisms with four different remedies — a cold directory (warm it), TTL
expiry (raise the TTL), data-source invalidation (nothing to fix: the
content changed), and capacity eviction (add slots) — and the overload and
fault subsystems add two more (a shed refill opportunity, a quarantined
slot).  This module attributes every observed miss to exactly one of those
causes:

======================  ====================================================
cause                   the fragment was absent/invalid because…
======================  ====================================================
``cold``                it had never been cached (compulsory miss)
``ttl_expired``         its TTL lapsed (lazy expiry or the background sweep)
``data_invalidated``    a data-source change invalidated it (§4.3.3 trigger
                        path, or an explicit admin invalidation)
``evicted_capacity``    the replacement manager evicted it to free a slot
``shed_overload``       it was absent and the request that would have
                        regenerated it was shed by overload protection
``fault_quarantine``    recovery dropped it (epoch resync, anti-entropy,
                        undelivered-SET quarantine, or directory repair)
======================  ====================================================

Mechanically the ledger is a *pending-reason* map: every removal records
its reason keyed by the fragment's ID, and the next miss on that
fragment consumes the pending reason (defaulting to ``cold`` when none is
pending — the fragment was simply never cached).  Because every miss
consumes exactly one cause and every cause increments exactly one counter,
the load-bearing invariant

    ``sum(cause counts) == directory.stats.misses``

holds by construction; :meth:`MissCauseLedger.check_invariants` asserts it
against a live directory and the property tests in
``tests/properties/test_insight_invariants.py`` drive it through random
workloads with faults and overload enabled.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..errors import ConfigurationError

#: Every way a miss can happen, in report order.  ``cold`` must stay first:
#: it is the default when no removal reason is pending.
MISS_CAUSES = (
    "cold",
    "ttl_expired",
    "data_invalidated",
    "evicted_capacity",
    "shed_overload",
    "fault_quarantine",
)

#: Reasons a removal hook may carry.  ``refreshed`` (re-insert over a valid
#: entry, i.e. a forced regeneration) is accepted but never becomes a miss
#: cause: the follow-up insert lands immediately, so no miss can observe it.
REMOVAL_REASONS = (
    "ttl_expired",
    "data_invalidated",
    "evicted_capacity",
    "fault_quarantine",
    "refreshed",
)


class MissCauseLedger:
    """Attribute every directory miss to exactly one lifecycle cause."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {cause: 0 for cause in MISS_CAUSES}
        self.hits = 0
        self.misses = 0
        #: fragment ID -> reason its entry was last removed.
        self._pending: Dict[Hashable, str] = {}
        #: fragment ID -> per-cause miss counts (report detail).
        self._per_fragment: Dict[Hashable, Dict[str, int]] = {}

    # -- hooks (called by the directory / harnesses) ------------------------

    def record_access(self, fragment_id: Hashable, hit: bool) -> None:
        """One directory lookup outcome; misses consume the pending reason."""
        if hit:
            self.hits += 1
            # A hit proves the entry is present and fresh; any stale pending
            # reason (e.g. a shed note on a fragment that survived) is moot.
            self._pending.pop(fragment_id, None)
            return
        self.misses += 1
        cause = self._pending.pop(fragment_id, "cold")
        self.counts[cause] += 1
        per_fragment = self._per_fragment.setdefault(fragment_id, {})
        per_fragment[cause] = per_fragment.get(cause, 0) + 1

    def record_removal(self, fragment_id: Hashable, reason: str) -> None:
        """An entry left the directory; remember why until the next miss."""
        if reason not in REMOVAL_REASONS:
            raise ConfigurationError(
                "unknown removal reason %r (have %s)"
                % (reason, sorted(REMOVAL_REASONS))
            )
        if reason == "refreshed":
            # The caller is about to re-insert fresh content; nothing for a
            # future miss to observe.
            self._pending.pop(fragment_id, None)
            return
        self._pending[fragment_id] = reason

    def record_insert(self, fragment_id: Hashable) -> None:
        """An entry (re)entered the directory: no removal is pending."""
        self._pending.pop(fragment_id, None)

    def note_shed(self, fragment_id: Hashable) -> None:
        """Overload protection shed the request that would have cached this.

        Called by the overload harness for each absent-or-stale cacheable
        fragment of a shed/timed-out page: the system had the opportunity
        to (re)generate the fragment and declined under pressure, so the
        *next* miss on it is attributed to the shed rather than to whatever
        removed it earlier.  A later, more precise removal (e.g. lazy TTL
        expiry during the missing lookup itself) still overwrites the note.
        """
        self._pending[fragment_id] = "shed_overload"

    # -- reading ------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    def cause_total(self) -> int:
        """Sum of all cause counters; equals :attr:`misses` by invariant."""
        return sum(self.counts.values())

    def as_rows(self) -> List[Tuple[str, int]]:
        """``(cause, count)`` rows in canonical order, zeros included."""
        return [(cause, self.counts[cause]) for cause in MISS_CAUSES]

    def top_fragments(self, n: int = 5) -> List[Tuple[str, int, str]]:
        """The ``n`` worst-missing fragments as (canonical, misses, causes).

        ``causes`` is a compact ``cause×count`` breakdown string, dominant
        cause first — the doctor report's "which fragments hurt" table.
        Fragments show, and break ties, as their canonical strings.
        """
        scored = sorted(
            self._per_fragment.items(),
            key=lambda item: (-sum(item[1].values()), str(item[0])),
        )
        rows: List[Tuple[str, int, str]] = []
        for fragment_id, causes in scored[:n]:
            total = sum(causes.values())
            breakdown = " ".join(
                "%s×%d" % (cause, count)
                for cause, count in sorted(
                    causes.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            rows.append((str(fragment_id), total, breakdown))
        return rows

    def check_invariants(self, directory=None) -> None:
        """Assert cause counts sum to misses (and match a live directory).

        ``directory`` is duck-typed (anything with ``stats.misses``); when
        given, the ledger's observed miss count must equal the directory's
        own counter — i.e. no miss path escaped attribution.
        """
        total = self.cause_total()
        if total != self.misses:
            raise AssertionError(
                "miss causes sum to %d but %d misses were observed"
                % (total, self.misses)
            )
        if directory is not None and directory.stats.misses != self.misses:
            raise AssertionError(
                "ledger saw %d misses but the directory counted %d"
                % (self.misses, directory.stats.misses)
            )

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows under ``insight.miss.*`` (zeros pre-registered)."""
        rows: List[Tuple[str, object]] = [
            ("insight.miss.%s" % cause, self.counts[cause])
            for cause in MISS_CAUSES
        ]
        rows.append(("insight.miss.total", self.misses))
        rows.append(("insight.hits", self.hits))
        rows.append(("insight.accesses", self.accesses))
        return rows
