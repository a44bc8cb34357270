"""The insight layer: one attachable bundle of ledger + profiler.

:class:`InsightLayer` is what a deployment actually attaches: it fans the
directory's lifecycle hooks out to the miss-cause ledger
(:mod:`repro.insight.ledger`) and the reuse-distance profiler
(:mod:`repro.insight.mattson`), collects eviction diagnostics from the
replacement policy, and publishes everything as ``insight.*`` registry
rows.  Attachment is duck-typed the same way the BEM's degrader hook is:
the core caches know only that *something* with ``record_access`` /
``record_removal`` / ``record_insert`` methods may be present, so
``repro.core`` stays import-independent of this package and unattached
deployments pay one ``is None`` check per lookup.

Which removal reasons feed the profiler matters: TTL expiry, data
invalidation, and fault quarantine are *content* events — they would have
happened at any cache size, so the counterfactual must replay them.
Capacity evictions are exactly what the counterfactual varies, so they are
deliberately **not** profiler events (a bigger cache would not have
evicted); they still feed the ledger, which attributes the real run's
misses.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from .ledger import MissCauseLedger
from .mattson import ReuseDistanceProfiler

#: Removal reasons replayed into the counterfactual profiler.
CONTENT_INVALIDATION_REASONS = frozenset(
    ("ttl_expired", "data_invalidated", "fault_quarantine")
)


class InsightLayer:
    """Ledger + profiler + eviction diagnostics behind one attachment."""

    def __init__(
        self, keep_events: bool = False, profile: bool = True
    ) -> None:
        self.ledger = MissCauseLedger()
        self.profiler: Optional[ReuseDistanceProfiler] = (
            ReuseDistanceProfiler(keep_events=keep_events) if profile else None
        )
        #: Eviction diagnostics accumulated via the replacement policy's
        #: :meth:`~repro.core.replacement.ReplacementPolicy.record_victim`.
        self.eviction_victims = 0
        self.eviction_idle_s_total = 0.0
        self.eviction_hits_total = 0
        self.eviction_bytes_total = 0
        #: DPC generation wipes observed (each one voids every slot).
        self.dpc_wipes = 0

    # -- directory hooks ----------------------------------------------------

    def record_access(self, fragment_id: Hashable, hit: bool) -> None:
        """One directory lookup outcome (called by ``CacheDirectory``)."""
        self.ledger.record_access(fragment_id, hit)
        if self.profiler is not None:
            self.profiler.on_access(fragment_id)

    def record_removal(self, fragment_id: Hashable, reason: str) -> None:
        """One entry removal, with its cause (called by ``CacheDirectory``)."""
        self.ledger.record_removal(fragment_id, reason)
        if (
            self.profiler is not None
            and reason in CONTENT_INVALIDATION_REASONS
        ):
            self.profiler.on_invalidate(fragment_id)

    def record_insert(self, fragment_id: Hashable) -> None:
        """One entry insertion (called by ``CacheDirectory``)."""
        self.ledger.record_insert(fragment_id)

    # -- satellite hooks -----------------------------------------------------

    def record_eviction(
        self, policy_name: str, idle_s: float, hits: int, size_bytes: int
    ) -> None:
        """Victim diagnostics from the replacement policy."""
        self.eviction_victims += 1
        self.eviction_idle_s_total += max(0.0, idle_s)
        self.eviction_hits_total += hits
        self.eviction_bytes_total += size_bytes

    def note_shed(self, fragment_id: Hashable) -> None:
        """Overload protection shed this fragment's refill opportunity."""
        self.ledger.note_shed(fragment_id)

    def record_dpc_wipe(self, epoch: int) -> None:
        """The DPC cleared its slot array (restart / epoch bump)."""
        self.dpc_wipes += 1

    # -- wiring --------------------------------------------------------------

    def attach(self, bem=None, directory=None, dpc=None) -> "InsightLayer":
        """Wire this layer into a deployment; returns self for chaining.

        ``bem``/``directory``/``dpc`` are duck-typed; pass whichever exist.
        Passing a BEM attaches its directory (and replacement policy); a
        DPC attaches the wipe hook.
        """
        if bem is not None:
            bem.attach_insight(self)
        if directory is not None:
            directory.attach_insight(self)
        if dpc is not None:
            dpc.attach_insight(self)
        return self

    # -- reading -------------------------------------------------------------

    def mean_eviction_idle_s(self) -> float:
        """Mean idle time of eviction victims (0.0 when none)."""
        if self.eviction_victims == 0:
            return 0.0
        return self.eviction_idle_s_total / self.eviction_victims

    def check_invariants(self, directory=None) -> None:
        """Assert the sum-to-misses invariant (see the ledger docs)."""
        self.ledger.check_invariants(directory)

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows: ledger + profiler + eviction + wipe counters."""
        rows = self.ledger.metric_rows()
        if self.profiler is not None:
            rows.extend(self.profiler.metric_rows())
        rows.append(("insight.eviction.victims", self.eviction_victims))
        rows.append(
            ("insight.eviction.mean_idle_s", round(self.mean_eviction_idle_s(), 4))
        )
        rows.append(("insight.dpc.wipes", self.dpc_wipes))
        return rows
