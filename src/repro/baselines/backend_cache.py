"""Baseline: back-end fragment caching (§3.1).

Back-end caches (presentation-layer HTML fragment caches, component caches)
"guarantee the correctness of the output ... [but] deliver all content from
the dynamic content application itself, and thus do not address
network-related delays".

This monitor is a drop-in for the BEM in the :class:`PageBuilder` protocol:
it keeps the same cache directory, TTLs, and trigger-driven invalidation,
but on a hit it emits the cached fragment *content inline* (a Literal)
instead of a GET tag.  Computation is saved; every byte still crosses the
origin link.  Comparing its byte counts against the BEM's isolates exactly
the bandwidth dimension of the paper's argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.bem import ObjectCache
from ..core.cache_directory import CacheDirectory
from ..core.fragments import FragmentID, FragmentMetadata
from ..core.invalidation import InvalidationManager
from ..core.replacement import ReplacementPolicy
from ..core.scanner import utf8_len
from ..core.template import Instruction, Literal
from ..network.clock import SimulatedClock


@dataclass
class BackendCacheStats:
    blocks_processed: int = 0
    hits: int = 0
    misses: int = 0
    bytes_generated: int = 0
    bytes_served_from_cache: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fragment hits over all cacheable-block accesses."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class BackendFragmentCache:
    """BEM-compatible monitor that caches fragments *inside* the site."""

    def __init__(
        self,
        capacity: int = 1024,
        clock: Optional[SimulatedClock] = None,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self.directory = CacheDirectory(capacity, policy=policy)
        self.invalidation = InvalidationManager(self.directory)
        self.objects = ObjectCache(self.clock)  # intermediate-object memo
        self._contents: Dict[int, str] = {}  # dpcKey -> cached fragment body
        #: What the last :meth:`process_block` generated; ``None`` after a
        #: hit.  A hit and a miss both return a ``Literal``, so this is how
        #: the page builder tells them apart.
        self.last_generated: Optional[str] = None
        self.stats = BackendCacheStats()

    # -- PageBuilder protocol -------------------------------------------------

    def process_block(
        self,
        fragment_id: FragmentID,
        describe: Callable[[], FragmentMetadata],
        generate: Callable[[], str],
    ) -> Instruction:
        """Same directory dance as the BEM, but output is always inline."""
        self.stats.blocks_processed += 1
        now = self.clock.now()
        entry = self.directory.lookup(fragment_id, now)
        if entry is not None:
            self.stats.hits += 1
            content = self._contents[entry.dpc_key]
            self.stats.bytes_served_from_cache += entry.size_bytes
            self.last_generated = None
            return Literal(content)

        metadata = describe()
        self.stats.misses += 1
        content = generate()
        size = utf8_len(content)
        self.stats.bytes_generated += size
        entry = self.directory.insert(fragment_id, metadata, size, now)
        self._contents[entry.dpc_key] = content
        if metadata.dependencies:
            self.invalidation.watch(fragment_id, tuple(metadata.dependencies))
        self.last_generated = content
        return Literal(content)

    # -- management (mirrors BackEndMonitor's surface) ----------------------------

    def attach_database(self, bus) -> None:
        """Wire a database's trigger bus into invalidation."""
        self.invalidation.attach(bus)

    def invalidate_fragment(
        self, name: str, params: Optional[Dict[str, object]] = None
    ) -> bool:
        """Explicitly invalidate one fragment by identity."""
        return self.directory.invalidate(FragmentID.create(name, params))

    def flush(self) -> int:
        """Invalidate everything and drop cached bodies."""
        self._contents.clear()
        return self.directory.invalidate_all()

    @property
    def hit_ratio(self) -> float:
        """Fragment hits over all cacheable-block accesses."""
        return self.stats.hit_ratio
