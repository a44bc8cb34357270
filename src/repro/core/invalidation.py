"""The BEM's cache invalidation manager (§4.3.3).

"A cache invalidation manager monitors fragments to determine when they
become invalid.  Fragments may become invalid due to, for instance,
expiration of the ttl or updates to the underlying data sources."

TTL expiry is handled lazily inside the cache directory; this module covers
the *data-source* half: it subscribes to a database's trigger bus and, when
a change commits, invalidates every directory entry with a dependency that
matches it.  It keeps no rows of its own: the cache directory stores each
entry's dependencies and indexes them by dpcKey, so evictions, expiries and
repairs drop them with the entry and :meth:`CacheDirectory.dependents
<repro.core.cache_directory.CacheDirectory.dependents>` names the candidates
for one event in ascending dpcKey order.

The fine granularity here — per-row, per-column dependencies — is what lets
the brokerage example invalidate only the price-quote fragment when a quote
ticks, leaving headlines and historical data cached (the §3.2.1 critique of
page-level invalidation).
"""

from __future__ import annotations

from typing import List

from ..database.triggers import ChangeEvent, TriggerBus
from .cache_directory import CacheDirectory


class InvalidationManager:
    """Maps committed database changes to fragment invalidations."""

    def __init__(self, directory: CacheDirectory) -> None:
        self.directory = directory
        self._buses: List[TriggerBus] = []
        self.events_seen = 0
        self.fragments_invalidated = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, bus: TriggerBus) -> None:
        """Subscribe to every table of a database's trigger bus."""
        bus.subscribe(self.on_change)
        self._buses.append(bus)

    def detach_all(self) -> None:
        """Unsubscribe from every attached trigger bus."""
        for bus in self._buses:
            bus.unsubscribe(self.on_change)
        self._buses.clear()

    # -- event handling ------------------------------------------------------------

    def on_change(self, event: ChangeEvent) -> None:
        """Trigger-bus callback: invalidate fragments hit by this change."""
        self.events_seen += 1
        table, _, key, row, old_row, changed_columns = event
        directory = self.directory
        for entry in directory.dependents(table, key):
            for dep in entry.dependencies:
                if dep.matches(table, key, changed_columns, row, old_row):
                    if directory.invalidate_entry(entry, "data_invalidated"):
                        self.fragments_invalidated += 1
                    break
