"""The Back End Monitor (BEM), §4.3.

The BEM "resides at the back end and has two primary functions:
(1) managing the cache for the DPC, and (2) caching intermediate objects."

Function (1) is the run-time protocol of §4.3.2: when a tagged code block is
encountered, look up its fragmentID in the cache directory and emit either

* **case 1** (miss / invalid): insert a directory entry, run the block to
  generate the content, and write a ``SET`` instruction to the template; or
* **case 2** (fresh hit): write only a ``GET`` instruction — the block's
  body never runs and its bytes never cross the wire.

Function (2) is an intermediate-object cache (:class:`ObjectCache`): the
user-profile object of the §3.2.2 example is fetched once per request chain
and shared by every fragment that derives from it, which is the semantic
interdependence that defeats ESI-style page factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..network.clock import SimulatedClock
from .cache_directory import CacheDirectory
from .fragments import FragmentID, FragmentMetadata
from .invalidation import InvalidationManager
from .replacement import ReplacementPolicy
from .scanner import utf8_len
from .template import (
    DEFAULT_CONFIG,
    GetInstruction,
    Instruction,
    KeyMemo,
    SetInstruction,
    TemplateConfig,
)

#: Builds a :class:`SetInstruction` from its fields in tuple order, without
#: a Python-level ``__new__`` call.
_new_set = tuple.__new__


@dataclass
class BemStats:
    """Run-time counters for experiments and monitoring."""

    blocks_processed: int = 0
    fragment_hits: int = 0
    fragment_misses: int = 0
    bytes_generated: int = 0      # fragment bytes actually computed
    bytes_served_from_dpc: int = 0  # fragment bytes replaced by GET tags
    #: Fragments served past TTL (within the degrader's grace window)
    #: because the request was already past its deadline — regeneration
    #: was skipped to bound latency, at a bounded correctness cost.
    stale_fragment_serves: int = 0

    @property
    def fragment_hit_ratio(self) -> float:
        """Directory hits over all cacheable-block accesses."""
        total = self.fragment_hits + self.fragment_misses
        if total == 0:
            return 0.0
        return self.fragment_hits / total


class ObjectCache:
    """BEM function (2): memoized intermediate (programmatic) objects.

    Keys are arbitrary strings (e.g. ``profile:bob``); values arbitrary
    Python objects.  Entries honor a TTL and can be invalidated explicitly
    or wholesale.  This is component-level caching in the style the authors
    describe in their VLDB'01 work, scoped to what the reproduction needs.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._entries: Dict[str, Tuple[object, Optional[float], float]] = {}
        self.hits = 0
        self.misses = 0

    def fetch(
        self,
        key: str,
        compute: Callable[[], object],
        ttl: Optional[float] = None,
    ) -> object:
        """Return the cached object for ``key``, computing it on a miss."""
        now = self._clock.now()
        cached = self._entries.get(key)
        if cached is not None:
            value, entry_ttl, created_at = cached
            if entry_ttl is None or now < created_at + entry_ttl:
                self.hits += 1
                return value
            del self._entries[key]
        self.misses += 1
        value = compute()
        self._entries[key] = (value, ttl, now)
        return value

    def invalidate(self, key: str) -> bool:
        """Drop one memoized object; True if it existed."""
        return self._entries.pop(key, None) is not None

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every object whose key starts with ``prefix``."""
        doomed = [key for key in self._entries if key.startswith(prefix)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop every memoized object."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class BackEndMonitor:
    """Observes script execution and writes the page template (§4.3.2)."""

    def __init__(
        self,
        capacity: int = 1024,
        clock: Optional[SimulatedClock] = None,
        policy: Optional[ReplacementPolicy] = None,
        template_config: TemplateConfig = DEFAULT_CONFIG,
    ) -> None:
        if capacity > template_config.max_key + 1:
            raise ConfigurationError(
                "capacity %d exceeds the %d keys representable with key_width=%d"
                % (capacity, template_config.max_key + 1, template_config.key_width)
            )
        self.clock = clock if clock is not None else SimulatedClock()
        self.directory = CacheDirectory(capacity, policy=policy)
        self.invalidation = InvalidationManager(self.directory)
        self.objects = ObjectCache(self.clock)
        self.template_config = template_config
        #: One immutable GET instruction per dpcKey, shared by every hit.
        self._gets = KeyMemo(GetInstruction)
        self.stats = BemStats()
        #: The DPC generation this directory is synchronized against.  New
        #: entries are stamped with it; the resync protocol
        #: (:mod:`repro.faults.recovery`) advances it when it observes a
        #: restarted proxy and drops entries stamped with older epochs.
        self.epoch = 0
        #: Transient per-request deadline (absolute virtual time), set by
        #: the application server around script execution.  ``None`` means
        #: no deadline pressure — the pre-overload behavior.
        self.deadline_at: Optional[float] = None
        #: Duck-typed :class:`repro.faults.degradation.GracefulDegrader`
        #: (anything exposing ``stale_lookup(fragment_id, now)``); enables
        #: the late-request stale-fragment fallback.
        self._degrader = None

    # -- the run-time protocol ----------------------------------------------------

    def process_block(
        self,
        fragment_id: FragmentID,
        describe: Callable[[], FragmentMetadata],
        generate: Callable[[], str],
    ) -> Instruction:
        """Handle one tagged, cacheable code block; returns its instruction.

        ``generate`` is the block's body.  It is invoked *only* on a miss —
        skipping it on hits is where the server-side computation savings of
        the approach come from.  ``describe`` yields the block's metadata
        (TTL, dependencies); it too runs only on a miss, once, before the
        directory entry is inserted, so a hit costs one directory probe.
        """
        stats = self.stats
        stats.blocks_processed += 1
        now = self.clock._now  # read in place: a hit runs no clock frame
        if (
            self._degrader is not None
            and self.deadline_at is not None
            and now >= self.deadline_at
        ):
            # The request is already late: a full regeneration can only
            # make it later.  Prefer whatever the directory still holds.
            # A TTL-expired entry within the degrader's grace window is
            # served via the non-mutating stale probe *before* lookup() so
            # lazy TTL expiry cannot free the slot out from under the GET
            # we are about to emit; a still-fresh entry falls through to
            # the normal lookup() below so it keeps its recency and hit
            # bookkeeping instead of becoming a preferential LRU victim.
            stale = self._degrader.stale_lookup(fragment_id, now)
            if stale is not None and not stale.fresh(now):
                stats.stale_fragment_serves += 1
                return self._gets[stale.dpc_key]
        entry = self.directory.lookup(fragment_id, now)
        if entry is not None:
            # Case 2: fresh hit -> GET instruction only.
            stats.fragment_hits += 1
            stats.bytes_served_from_dpc += entry.size_bytes
            return self._gets[entry.dpc_key]

        # Case 1: miss or invalid -> generate, insert entry, SET instruction.
        metadata = describe()
        stats.fragment_misses += 1
        content = generate()
        size = utf8_len(content)
        stats.bytes_generated += size
        entry = self.directory.insert(fragment_id, metadata, size, now, self.epoch)
        return _new_set(SetInstruction, (entry.dpc_key, content))

    # -- management surface ---------------------------------------------------------

    def attach_database(self, bus) -> None:
        """Wire a database's trigger bus into the invalidation manager."""
        self.invalidation.attach(bus)

    def attach_insight(self, insight) -> None:
        """Attach a miss-cause/reuse observer to the cache directory.

        ``insight`` is duck-typed (normally a
        :class:`repro.insight.InsightLayer`) and simply forwarded to
        :meth:`repro.core.cache_directory.CacheDirectory.attach_insight`,
        mirroring :meth:`attach_degrader` so the core stays
        import-independent of the insight subsystem.
        """
        self.directory.attach_insight(insight)

    def attach_degrader(self, degrader) -> None:
        """Enable the stale-on-late fallback for deadline-pressured requests.

        ``degrader`` is duck-typed (anything exposing
        ``stale_lookup(fragment_id, now)``, normally a
        :class:`repro.faults.degradation.GracefulDegrader`) so the core
        stays import-independent of the fault subsystem.
        """
        self._degrader = degrader

    def invalidate_fragment(
        self, name: str, params: Optional[Dict[str, object]] = None
    ) -> bool:
        """Explicit invalidation by fragment identity (admin/API surface)."""
        return self.directory.invalidate(FragmentID.create(name, params))

    def invalidate_block(self, name: str) -> int:
        """Invalidate every cached instance of a block, across parameters."""
        return self.directory.invalidate_where(
            lambda entry: entry.fragment_id.name == name
        )

    def flush(self) -> int:
        """Invalidate everything (e.g. on deploy of new script versions)."""
        self.objects.clear()
        return self.directory.invalidate_all()

    @property
    def hit_ratio(self) -> float:
        """Directory hits over all cacheable-block accesses."""
        return self.stats.fragment_hit_ratio

    def metric_rows(self) -> List[tuple]:
        """Registry rows: the BEM's health under ``bem.*``/``directory.*``.

        Same rows, order, and rounding the deployment snapshot always
        published (``objects.memoized`` now spelled ``bem.objects.memoized``
        per the dotted-name normalization).
        """
        return [
            ("bem.epoch", self.epoch),
            ("bem.blocks_processed", self.stats.blocks_processed),
            ("bem.fragment_hits", self.stats.fragment_hits),
            ("bem.fragment_misses", self.stats.fragment_misses),
            ("bem.hit_ratio", round(self.stats.fragment_hit_ratio, 4)),
            ("bem.bytes_generated", self.stats.bytes_generated),
            ("bem.bytes_served_from_dpc", self.stats.bytes_served_from_dpc),
            ("directory.valid_entries", self.directory.valid_count()),
            ("directory.capacity", self.directory.capacity),
            (
                "directory.utilization",
                round(self.directory.valid_count() / self.directory.capacity, 4),
            ),
            ("directory.evictions", self.directory.stats.evictions),
            ("directory.invalidations", self.directory.stats.invalidations),
            ("directory.ttl_expirations", self.directory.stats.ttl_expirations),
            (
                "invalidation.fragments_invalidated",
                self.invalidation.fragments_invalidated,
            ),
            ("bem.objects.memoized", len(self.objects)),
        ]
