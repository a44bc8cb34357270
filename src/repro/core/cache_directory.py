"""The BEM's cache directory and freeList (§4.3.3).

The cache directory "keeps track of the fragments in the DPC and their
respective metadata" with the structure::

    fragmentID   unique fragment identifier (name+parameterList)
    dpcKey       unique fragment identifier within the DPC
    isValid      flag to indicate validity of fragment
    ttl          time-to-live value for fragment

Slot lifecycle, exactly as the paper describes it:

* A new fragment takes a dpcKey from the **freeList** when its entry is
  inserted.
* Invalidation (TTL expiry, data-source update, or replacement) only sets
  ``isValid = FALSE`` and pushes the dpcKey back onto the freeList — "no
  action is taken by the DPC"; the slot's stale bytes simply remain until
  the key is reassigned and a SET overwrites them.
* Because the freeList holds every key not backing a valid entry, its
  capacity need only equal the maximum cache size.

The invariant that a dpcKey is *either* on the freeList *or* backing
exactly one valid entry (never both, never neither) is enforced here and
property-tested.

The directory is also the only store of each row's data-source
dependencies, indexed by dpcKey so that they leave with the row
(:meth:`CacheDirectory.dependents` serves the invalidation manager).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..errors import ConfigurationError, DirectoryFullError
from .fragments import FragmentID, FragmentMetadata
from .replacement import DecayedFrequencyPolicy, ReplacementPolicy


class DirectoryEntry:
    """One cache-directory row.

    ``__slots__``-based: a warm directory holds thousands of rows that are
    probed on every request, and slot storage keeps each row's memory and
    attribute reads dict-free.  Rows stay mutable — lookup updates
    ``last_access``/``hits``, invalidation flips ``is_valid`` — exactly as
    before.
    """

    __slots__ = (
        "fragment_id",
        "dpc_key",
        "is_valid",
        "ttl",
        "created_at",
        "last_access",
        "hits",
        "size_bytes",
        "dependencies",
        "epoch",
    )

    def __init__(
        self,
        fragment_id: FragmentID,
        dpc_key: int,
        is_valid: bool = True,
        ttl: Optional[float] = None,
        created_at: float = 0.0,
        last_access: float = 0.0,
        hits: int = 0,
        size_bytes: int = 0,
        dependencies: tuple = (),
        epoch: int = 0,
    ) -> None:
        self.fragment_id = fragment_id
        self.dpc_key = dpc_key
        self.is_valid = is_valid
        self.ttl = ttl
        self.created_at = created_at
        self.last_access = last_access
        self.hits = hits
        self.size_bytes = size_bytes
        self.dependencies = dependencies
        #: DPC generation this entry's SET was issued against.  Entries whose
        #: epoch predates the proxy's current epoch reference slots that were
        #: wiped by a restart; the resync protocol invalidates them wholesale.
        self.epoch = epoch

    def fresh(self, now: float) -> bool:
        """Valid and within TTL."""
        if not self.is_valid:
            return False
        if self.ttl is None:
            return True
        return now < self.created_at + self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DirectoryEntry(%r, dpc_key=%d, is_valid=%r)" % (
            self.fragment_id,
            self.dpc_key,
            self.is_valid,
        )


class FreeList:
    """FIFO queue of reusable dpcKeys.

    FIFO order maximizes the time before a recycled key's stale DPC slot is
    overwritten, which is the most adversarial schedule for the safety
    property that stale slots are never *served* — good for testing, and
    faithful to the paper's "inserted at the end of the freeList".
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError("freeList capacity must be positive")
        self.capacity = capacity
        self._keys: Deque[int] = deque(range(capacity))
        self._members = set(range(capacity))

    def pop(self) -> int:
        """Take the next reusable dpcKey (FIFO)."""
        if not self._keys:
            raise DirectoryFullError("freeList is empty")
        key = self._keys.popleft()
        self._members.discard(key)
        return key

    def push(self, key: int) -> None:
        """Return a dpcKey for reuse (appended at the end, §4.3.3)."""
        if not 0 <= key < self.capacity:
            raise ConfigurationError(
                "dpcKey %d out of range for capacity %d" % (key, self.capacity)
            )
        if key in self._members:
            raise ConfigurationError("dpcKey %d is already on the freeList" % key)
        self._keys.append(key)
        self._members.add(key)

    def __contains__(self, key: int) -> bool:
        return key in self._members

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class DirectoryStats:
    """Counters exposed for experiments."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: int = 0
    ttl_expirations: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over all lookups."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class RepairReport:
    """What one :meth:`CacheDirectory.audit_and_repair` pass fixed."""

    stale_mappings: int = 0     # valid-by-key rows pointing at invalid entries
    orphaned_records: int = 0   # directory rows with no valid slot claim
    keys_reclaimed: int = 0     # dpcKeys that were neither free nor valid

    @property
    def anomalies(self) -> int:
        """Total violations repaired; 0 means the directory was healthy."""
        return self.stale_mappings + self.orphaned_records + self.keys_reclaimed


class CacheDirectory:
    """fragmentID -> :class:`DirectoryEntry`, plus the freeList.

    ``capacity`` is both the number of DPC slots and the directory-size
    threshold at which the replacement manager starts evicting.  The
    replacement policy defaults to :class:`DecayedFrequencyPolicy`.
    """

    def __init__(
        self,
        capacity: int,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("directory capacity must be positive")
        self.capacity = capacity
        self.policy = policy if policy is not None else DecayedFrequencyPolicy()
        self.free_list = FreeList(capacity)
        self._entries: Dict[FragmentID, DirectoryEntry] = {}
        self._valid_by_key: Dict[int, DirectoryEntry] = {}
        #: Valid dpcKeys by dependency (dicts as ordered sets): row-keyed
        #: ones under table -> row key, all others under their table.
        self._by_row: Dict[str, Dict[object, Dict[int, None]]] = {}
        self._by_table: Dict[str, Dict[int, None]] = {}
        self.stats = DirectoryStats()
        #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
        #: ``record_access``/``record_removal``/``record_insert``); ``None``
        #: keeps the pre-insight behavior at one attribute check per lookup.
        self.insight = None

    def attach_insight(self, insight) -> None:
        """Attach a lifecycle observer (miss-cause ledger + profiler).

        ``insight`` is duck-typed so the core stays import-independent of
        :mod:`repro.insight`.  The replacement policy is wired too, so
        eviction victims report their diagnostics through the same layer.
        """
        self.insight = insight
        self.policy.insight = insight

    # -- lookup -------------------------------------------------------------------

    def lookup(self, fragment_id: FragmentID, now: float) -> Optional[DirectoryEntry]:
        """Run-time directory probe.

        Returns the entry on a *fresh* hit (recording the access, and
        telling the policy unless its index is dormant), ``None`` on a
        miss.  A TTL-expired entry is invalidated on the spot — lazy
        expiry, so no background sweeper is required for correctness (one
        exists anyway for memory hygiene; see :meth:`expire_stale`).
        """
        stats = self.stats
        stats.lookups += 1
        entry = self._entries.get(fragment_id)
        if entry is None:
            stats.misses += 1
            if self.insight is not None:
                self.insight.record_access(fragment_id, hit=False)
            return None
        if entry.is_valid and entry.ttl is not None and not entry.fresh(now):
            stats.ttl_expirations += 1
            self._invalidate_entry(entry, "ttl_expired")
        if not entry.is_valid:
            stats.misses += 1
            if self.insight is not None:
                self.insight.record_access(fragment_id, hit=False)
            return None
        entry.last_access = now
        entry.hits += 1
        policy = self.policy
        if not policy.dormant:
            policy.on_access(entry)
        stats.hits += 1
        if self.insight is not None:
            self.insight.record_access(fragment_id, hit=True)
        return entry

    def peek(self, fragment_id: FragmentID) -> Optional[DirectoryEntry]:
        """Read an entry without touching access stats or TTL state."""
        return self._entries.get(fragment_id)

    # -- insertion -----------------------------------------------------------------

    def insert(
        self,
        fragment_id: FragmentID,
        metadata: FragmentMetadata,
        size_bytes: int,
        now: float,
        epoch: int = 0,
    ) -> DirectoryEntry:
        """Create the entry for a just-generated fragment (miss case 1).

        Allocates a dpcKey from the freeList, evicting a victim first when
        the cache is full.  Any stale (invalid) entry for the same
        fragmentID is replaced.
        """
        old = self._entries.get(fragment_id)
        if old is not None and old.is_valid:
            # Re-inserting over a valid entry means the caller decided to
            # regenerate (e.g. forced refresh): recycle the old key first.
            self._invalidate_entry(old, "refreshed")
        free_list = self.free_list
        if not free_list._keys:
            self._evict_one(now)
        key = free_list.pop()
        dependencies = tuple(metadata.dependencies)
        entry = DirectoryEntry(
            fragment_id, key, True, metadata.ttl, now, now, 0, size_bytes,
            dependencies, epoch,
        )
        self._entries[fragment_id] = entry
        self._valid_by_key[key] = entry
        for dep in dependencies:
            table, row = dep[0], dep[1]  # Dependency.table, Dependency.key
            # get-then-store: setdefault would build a dict on every call.
            if row is None:
                wide = self._by_table.get(table)
                if wide is None:
                    wide = self._by_table[table] = {}
                wide[key] = None
                continue
            rows = self._by_row.get(table)
            if rows is None:
                rows = self._by_row[table] = {}
            bucket = rows.get(row)
            if bucket is None:
                rows[row] = {key: None}
            else:
                bucket[key] = None
        self.policy.on_insert(entry)
        self.stats.insertions += 1
        if self.insight is not None:
            self.insight.record_insert(fragment_id)
        return entry

    def _evict_one(self, now: float) -> None:
        """Free one dpcKey by evicting the policy's victim.

        A victim whose ``isValid`` flag was cleared without the freeList
        bookkeeping (a desynced row, see ``faults.injectors``) is not
        evicted: it is repaired in place, which frees its key, so no valid
        entry has to go.
        """
        victim = self.policy.select_victim(self._valid_by_key.values(), now)
        if victim is None:
            raise DirectoryFullError(
                "directory is full and no entry is eligible for eviction"
            )
        if not victim.is_valid:
            self._quarantine_desynced(victim)
            return
        self.stats.evictions += 1
        if self.insight is not None:
            self.policy.record_victim(victim, now)
        self._invalidate_entry(victim, "evicted_capacity")

    def _quarantine_desynced(self, entry: DirectoryEntry) -> None:
        """Finish the bookkeeping a bare ``isValid`` flip skipped.

        Drops the row's valid-by-key mapping, returns its dpcKey to the
        freeList and drops its directory record (unless a newer entry for
        the fragment replaced it), as :meth:`audit_and_repair` would.  Not
        counted as an eviction or an invalidation.
        """
        self._release(entry.dpc_key)
        self.free_list.push(entry.dpc_key)
        fragment_id = entry.fragment_id
        if self._entries.get(fragment_id) is entry:
            del self._entries[fragment_id]
            if self.insight is not None:
                self.insight.record_removal(fragment_id, "fault_quarantine")

    # -- invalidation ----------------------------------------------------------------

    def invalidate(
        self, fragment_id: FragmentID, reason: str = "data_invalidated"
    ) -> bool:
        """Invalidate one fragment by identity; True if it was valid.

        ``reason`` feeds miss-cause attribution when an insight layer is
        attached (data-source invalidation by default; recovery passes
        ``fault_quarantine``).
        """
        entry = self._entries.get(fragment_id)
        return entry is not None and self.invalidate_entry(entry, reason)

    def invalidate_entry(
        self, entry: DirectoryEntry, reason: str = "data_invalidated"
    ) -> bool:
        """Invalidate one row already in hand (as :meth:`invalidate` does
        after its probe); True if it was valid.

        The invalidation manager passes the rows :meth:`dependents` named,
        so it does not look each one up again by fragment id.
        """
        if not entry.is_valid:
            return False
        self.stats.invalidations += 1
        self._invalidate_entry(entry, reason=reason)
        return True

    def invalidate_where(self, predicate, reason: str = "data_invalidated") -> int:
        """Invalidate every valid entry matching ``predicate(entry)``."""
        victims = [
            entry for entry in self._valid_by_key.values() if predicate(entry)
        ]
        for entry in victims:
            self.stats.invalidations += 1
            self._invalidate_entry(entry, reason=reason)
        return len(victims)

    def invalidate_all(self, reason: str = "data_invalidated") -> int:
        """Invalidate every valid entry; returns the count."""
        return self.invalidate_where(lambda entry: True, reason=reason)

    def expire_stale(self, now: float) -> int:
        """Background sweep: invalidate every TTL-expired entry."""
        expired = [
            entry
            for entry in self._valid_by_key.values()
            if not entry.fresh(now)
        ]
        for entry in expired:
            self.stats.ttl_expirations += 1
            self._invalidate_entry(entry, reason="ttl_expired")
        return len(expired)

    def _invalidate_entry(
        self, entry: DirectoryEntry, reason: str = "data_invalidated"
    ) -> None:
        """§4.3.3: flip isValid and push the dpcKey onto the freeList."""
        if not entry.is_valid:
            return
        entry.is_valid = False
        key = entry.dpc_key
        self._release(key)
        self.free_list.push(key)
        # Drop the stale record entirely: the paper keeps it only until the
        # fragment is re-requested, and removing it bounds directory memory.
        fragment_id = entry.fragment_id
        if self._entries.get(fragment_id) is entry:
            del self._entries[fragment_id]
        if self.insight is not None:
            self.insight.record_removal(fragment_id, reason)

    def _release(self, key: int) -> None:
        """Drop ``key``'s valid mapping, policy state and index entries."""
        entry = self._valid_by_key.pop(key)
        self.policy.on_remove(entry)
        for dep in entry.dependencies:
            table, row = dep[0], dep[1]  # Dependency.table, Dependency.key
            if row is None:
                self._by_table[table].pop(key, None)
                continue
            rows = self._by_row[table]
            bucket = rows.get(row)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del rows[row]

    # -- repair (recovery API; see repro.faults.recovery) --------------------------

    def rebuild_free_list(self) -> int:
        """Reconstruct the freeList from first principles.

        The freeList must hold exactly the dpcKeys not backing a valid
        entry.  A desynchronized deployment (crashed DPC, corrupted
        bookkeeping) can leak keys — neither free nor valid — which silently
        shrinks the cache until :class:`~repro.errors.DirectoryFullError`.
        This rebuilds the list in ascending key order and returns the number
        of keys reclaimed (keys that were leaked before the rebuild).
        """
        fresh = FreeList(self.capacity)
        fresh._keys = deque(
            key for key in range(self.capacity) if key not in self._valid_by_key
        )
        fresh._members = set(fresh._keys)
        reclaimed = sum(
            1 for key in fresh._members if key not in self.free_list._members
        )
        self.free_list = fresh
        return reclaimed

    def audit_and_repair(self) -> "RepairReport":
        """Detect and repair slot-discipline violations (invariant #2).

        Handles the desync modes the chaos harness can inject: entries whose
        ``isValid`` flag was flipped without the freeList bookkeeping,
        records whose valid-by-key mapping no longer points back at them,
        and dpcKeys leaked off the freeList.  After the repair the
        slot-discipline invariant is re-checked; a surviving violation is a
        bug, not a fault, and raises :class:`AssertionError`.
        """
        stale_mappings = 0
        for key, entry in list(self._valid_by_key.items()):
            if not entry.is_valid or entry.dpc_key != key:
                self._release(key)
                stale_mappings += 1
        orphaned_records = 0
        for fragment_id, entry in list(self._entries.items()):
            if entry.is_valid and self._valid_by_key.get(entry.dpc_key) is entry:
                continue  # healthy row
            entry.is_valid = False
            del self._entries[fragment_id]
            orphaned_records += 1
            if self.insight is not None:
                # Repair dropped bookkeeping that could not be trusted; the
                # next miss on the fragment is recovery's doing.
                self.insight.record_removal(fragment_id, "fault_quarantine")
        keys_reclaimed = self.rebuild_free_list()
        self.check_invariants()
        return RepairReport(
            stale_mappings=stale_mappings,
            orphaned_records=orphaned_records,
            keys_reclaimed=keys_reclaimed,
        )

    # -- introspection -------------------------------------------------------------

    def valid_entries(self) -> List[DirectoryEntry]:
        """All currently valid directory entries."""
        return list(self._valid_by_key.values())

    def valid_count(self) -> int:
        """Number of valid entries (resident fragments)."""
        return len(self._valid_by_key)

    def dependents(self, table: str, key: object) -> List[DirectoryEntry]:
        """Valid entries a change to row ``key`` of ``table`` could match.

        Those keyed to that row plus those with a dependency on the table
        that is not row-keyed, in ascending dpcKey order.  The common case,
        no table-wide dependent and one row keyed to ``key``, takes neither
        a set union nor a sort.
        """
        wide = self._by_table.get(table)
        rows = self._by_row.get(table)
        bucket = rows.get(key) if rows else None
        valid = self._valid_by_key
        if not wide:
            if not bucket:
                return []
            if len(bucket) == 1:
                (k,) = bucket
                entry = valid[k]
                return [entry] if entry.is_valid else []
            keys = bucket
        elif bucket:
            keys = wide.keys() | bucket.keys()
        else:
            keys = wide
        return [valid[k] for k in sorted(keys) if valid[k].is_valid]

    def entry_for_key(self, dpc_key: int) -> Optional[DirectoryEntry]:
        """The valid entry backing a dpcKey, or None."""
        return self._valid_by_key.get(dpc_key)

    def check_invariants(self) -> None:
        """Assert slot discipline and index consistency (used by property tests)."""
        free = {key for key in range(self.capacity) if key in self.free_list}
        valid = set(self._valid_by_key)
        overlap = free & valid
        if overlap:
            raise AssertionError("keys both free and valid: %s" % sorted(overlap))
        missing = set(range(self.capacity)) - free - valid
        if missing:
            raise AssertionError("keys neither free nor valid: %s" % sorted(missing))
        for key, entry in self._valid_by_key.items():
            if entry.dpc_key != key or not entry.is_valid:
                raise AssertionError("corrupt valid-by-key mapping at %d" % key)
        # The dependency index holds each valid row's dependencies, nothing
        # else, and no empty row bucket.
        indexed = {(t, None, k) for t, keys in self._by_table.items() for k in keys}
        for t, rows in self._by_row.items():
            for r, keys in rows.items():
                if not keys:
                    raise AssertionError("empty index bucket %s[%r]" % (t, r))
                indexed.update((t, r, k) for k in keys)
        wanted = {
            (d.table, d.key, k)
            for k, entry in self._valid_by_key.items()
            for d in entry.dependencies
        }
        if indexed != wanted:
            raise AssertionError("dependency index out of step with the valid set")

    def __len__(self) -> int:
        return len(self._entries)
