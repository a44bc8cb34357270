"""Property: data-driven invalidation through the directory's dependency
index kills exactly what a brute-force scan says it should.

A directory with a few slots (so evictions happen) and an invalidation
manager wired to a real database receive random inserts with row-keyed,
table-wide, column- and where-filtered dependencies, lookups past TTLs,
explicit invalidations, sweeps, row updates, deletes and re-inserts, and
desynced rows that get repaired.  For every committed change the set of
fragments invalidated must equal the oracle: every valid entry with any
dependency matching the event.  ``check_invariants`` (slot discipline and
index consistency) must hold after every operation.

A second property drives the manager with random change events directly
(inserts, updates of one or both columns, deletes, and updates that move a
row into or out of a category) and checks the invalidation walk itself:
each event must invalidate exactly the valid entries that a scan over
``valid_entries()`` selects with the frozen-dataclass ``Dependency.matches``
the tuple-backed one replaced, in ascending dpcKey order, and return their
dpcKeys to the freeList in that order.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.core.invalidation import InvalidationManager
from repro.core.replacement import make_policy
from repro.database import DELETE, INSERT, UPDATE, ChangeEvent, Database, schema

TABLES = ("items", "users")
ROWS = (0, 1, 2, 3)
CATEGORIES = ("x", "y")
NAMES = 8

dependencies = st.one_of(
    st.builds(Dependency, st.sampled_from(TABLES), key=st.sampled_from(ROWS)),
    st.builds(Dependency, st.sampled_from(TABLES)),
    st.builds(Dependency, st.sampled_from(TABLES),
              column=st.sampled_from(["cat", "price"])),
    st.builds(Dependency, st.sampled_from(TABLES), key=st.sampled_from(ROWS),
              column=st.sampled_from(["cat", "price"])),
    st.builds(Dependency, st.sampled_from(TABLES), where_column=st.just("cat"),
              where_value=st.sampled_from(CATEGORIES)),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, NAMES - 1),
                  st.lists(dependencies, max_size=3),
                  st.sampled_from([None, 3.0, 10.0])),
        st.tuples(st.just("lookup"), st.integers(0, NAMES - 1)),
        st.tuples(st.just("invalidate"), st.integers(0, NAMES - 1)),
        st.tuples(st.just("expire")),
        st.tuples(st.just("tick"), st.sampled_from([1.0, 4.0])),
        st.tuples(st.just("update"), st.sampled_from(TABLES),
                  st.sampled_from(ROWS), st.sampled_from(["cat", "price"]),
                  st.sampled_from(CATEGORIES)),
        st.tuples(st.just("toggle"), st.sampled_from(TABLES),
                  st.sampled_from(ROWS), st.sampled_from(CATEGORIES)),
        st.tuples(st.just("flip"), st.integers(0, NAMES - 1),
                  st.lists(dependencies, max_size=2),
                  st.sampled_from(TABLES), st.sampled_from(ROWS)),
    ),
    max_size=80,
)


def fid(index):
    return FragmentID.create("frag", {"id": index})


class World:
    """Directory, manager and database, plus a brute-force event oracle."""

    def __init__(self, capacity, policy):
        self.db = Database()
        self.tables = {}
        for name in TABLES:
            table = self.db.create_table(
                schema(name, [("id", "int"), ("cat", "str"), ("price", "float")])
            )
            for row in ROWS:
                table.insert({"id": row, "cat": "x", "price": 1.0})
            self.tables[name] = table
        self.directory = CacheDirectory(capacity, policy=make_policy(policy))
        # Subscribed before the manager: sees each event before it acts.
        self.db.bus.subscribe(self.predict)
        self.manager = InvalidationManager(self.directory)
        self.manager.attach(self.db.bus)
        self.expected = set()
        self.now = 0.0

    def predict(self, event):
        for entry in self.directory.valid_entries():
            if entry.is_valid and any(
                dep.matches(event.table, event.key, event.changed_columns,
                            row=event.row, old_row=event.old_row)
                for dep in entry.dependencies
            ):
                self.expected.add(entry.fragment_id.canonical())

    def valid(self):
        return {
            entry.fragment_id.canonical()
            for entry in self.directory.valid_entries()
            if entry.is_valid
        }

    def commit(self, change):
        """Run one database change and compare its kills with the oracle."""
        self.expected = set()
        before = self.valid()
        count = self.manager.fragments_invalidated
        change()
        killed = before - self.valid()
        assert killed == self.expected
        assert self.manager.fragments_invalidated - count == len(killed)

    def apply(self, op):
        kind = op[0]
        directory = self.directory
        if kind == "insert":
            _, index, deps, ttl = op
            directory.insert(
                fid(index),
                FragmentMetadata(ttl=ttl, dependencies=tuple(deps)),
                10,
                self.now,
            )
        elif kind == "lookup":
            directory.lookup(fid(op[1]), self.now)
        elif kind == "invalidate":
            directory.invalidate(fid(op[1]))
        elif kind == "expire":
            directory.expire_stale(self.now)
        elif kind == "tick":
            self.now += op[1]
        elif kind == "update":
            _, table, row, column, category = op
            value = category if column == "cat" else self.now
            self.commit(lambda: self.tables[table].update({column: value}, key=row))
        elif kind == "toggle":
            _, table, row, category = op
            if self.tables[table].get(row) is None:
                self.commit(lambda: self.tables[table].insert(
                    {"id": row, "cat": category, "price": 1.0}))
            else:
                self.commit(lambda: self.tables[table].delete(key=row))
        elif kind == "flip":
            # Desync one row and re-cache its fragment with new
            # dependencies, fire an event, then repair: only the newer
            # entry's own dependencies may decide whether it dies.
            _, index, deps, table, row = op
            entry = directory.peek(fid(index))
            if entry is not None and entry.is_valid:
                entry.is_valid = False
            directory.insert(
                fid(index), FragmentMetadata(dependencies=tuple(deps)), 10, self.now
            )
            self.commit(lambda: self.tables[table].update({"price": 2.0}, key=row))
            directory.audit_and_repair()
        directory.check_invariants()


@given(
    operations,
    st.integers(1, 4),
    st.sampled_from(["lrfu", "lru", "lfu", "fifo", "ttl", "gds"]),
)
@settings(max_examples=300, deadline=None)
def test_index_invalidates_exactly_what_a_scan_would(ops, capacity, policy):
    world = World(capacity, policy)
    for op in ops:
        world.apply(op)
    # Every surviving entry is a candidate for events on each of its dependencies.
    for entry in world.directory.valid_entries():
        for dep in entry.dependencies:
            assert entry in world.directory.dependents(dep.table, dep.key)


@dataclass(frozen=True)
class ReferenceDependency:
    """The previous ``Dependency``, a frozen dataclass, verbatim: the oracle."""

    table: str
    key: Optional[object] = None
    column: Optional[str] = None
    where_column: Optional[str] = None
    where_value: Optional[object] = None

    def matches(
        self,
        table: str,
        key: object,
        changed_columns: Iterable[str],
        row: Optional[Dict[str, object]] = None,
        old_row: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Whether a change event falls within this dependency."""
        if table != self.table:
            return False
        if self.key is not None and key != self.key:
            return False
        if self.column is not None:
            changed = tuple(changed_columns)
            # Inserts/deletes report no changed columns: treat them as
            # touching every column of the row.
            if changed and self.column not in changed:
                return False
        if self.where_column is not None:
            # Match against either image: an update that moves a row into
            # OR out of the watched set invalidates fragments built on it.
            images = [img for img in (row, old_row) if img is not None]
            if images and not any(
                img.get(self.where_column) == self.where_value for img in images
            ):
                return False
        return True


#: One row more than any dependency names, so some events match no row key.
EVENT_ROWS = ROWS + (len(ROWS),)

images = st.fixed_dictionaries({
    "id": st.sampled_from(EVENT_ROWS),
    "cat": st.sampled_from(CATEGORIES),
    "price": st.sampled_from([1.0, 2.0]),
})


def _update(table, old, columns):
    """An update of ``columns``: ``cat`` moves the row to the other
    category (out of one watched set, into the other)."""
    new = dict(old)
    for column in columns:
        if column == "cat":
            new["cat"] = CATEGORIES[1 - CATEGORIES.index(old["cat"])]
        else:
            new["price"] = old["price"] + 1.0
    return ChangeEvent(table, UPDATE, old["id"], row=new, old_row=dict(old),
                       changed_columns=tuple(columns))


events = st.one_of(
    st.builds(lambda table, row: ChangeEvent(table, INSERT, row["id"], row=row),
              st.sampled_from(TABLES), images),
    st.builds(lambda table, row: ChangeEvent(table, DELETE, row["id"], old_row=row),
              st.sampled_from(TABLES), images),
    st.builds(_update, st.sampled_from(TABLES), images,
              st.sampled_from([("cat",), ("price",), ("cat", "price"), ("price", "cat")])),
)

@given(dependencies, events)
@settings(max_examples=500)
def test_matches_agrees_with_the_dataclass_oracle(dep, event):
    args = (event.table, event.key, event.changed_columns, event.row, event.old_row)
    assert dep.matches(*args) == ReferenceDependency(*dep).matches(*args)


walk_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, NAMES - 1),
                  st.lists(dependencies, max_size=3)),
        st.tuples(st.just("event"), events),
        st.tuples(st.just("invalidate"), st.integers(0, NAMES - 1)),
        st.tuples(st.just("flip"), st.integers(0, NAMES - 1), events),
    ),
    max_size=60,
)


class Removals:
    """Insight stand-in: records the directory's removals in order."""

    def __init__(self):
        self.removed = []

    def record_access(self, fragment_id, hit):
        pass

    def record_insert(self, fragment_id):
        pass

    def record_eviction(self, policy, idle, hits, size):
        pass

    def record_removal(self, fragment_id, reason):
        self.removed.append((fragment_id, reason))


@given(
    walk_operations,
    st.integers(1, 4),
    st.sampled_from(["lrfu", "lru", "lfu", "fifo", "ttl", "gds"]),
)
@settings(max_examples=300, deadline=None)
def test_walk_invalidates_what_the_dataclass_oracle_selects_in_order(
    ops, capacity, policy
):
    directory = CacheDirectory(capacity, policy=make_policy(policy))
    removals = Removals()
    directory.attach_insight(removals)
    manager = InvalidationManager(directory)
    for op in ops:
        if op[0] == "insert":
            _, index, deps = op
            directory.insert(
                fid(index), FragmentMetadata(dependencies=tuple(deps)), 10, 0.0
            )
        elif op[0] == "invalidate":
            directory.invalidate(fid(op[1]))
        elif op[0] == "event":
            check_event(directory, manager, removals, op[1])
        else:
            # Desync one row (flag cleared, bookkeeping skipped): it stays
            # indexed but is no candidate, until the repair drops it.
            _, index, event = op
            entry = directory.peek(fid(index))
            if entry is not None:
                entry.is_valid = False
            check_event(directory, manager, removals, event)
            directory.audit_and_repair()
        directory.check_invariants()


def check_event(directory, manager, removals, event):
    """Run one event through the manager and compare with the oracle."""
    valid = [
        entry
        for entry in sorted(directory.valid_entries(), key=lambda e: e.dpc_key)
        if entry.is_valid
    ]
    candidates = [
        entry for entry in valid
        if any(
            dep.table == event.table and dep.key in (None, event.key)
            for dep in entry.dependencies
        )
    ]
    assert directory.dependents(event.table, event.key) == candidates
    expected = [
        entry for entry in valid
        if any(
            ReferenceDependency(*dep).matches(
                event.table, event.key, event.changed_columns,
                row=event.row, old_row=event.old_row,
            )
            for dep in entry.dependencies
        )
    ]
    free_before = list(directory.free_list._keys)
    count = manager.fragments_invalidated
    del removals.removed[:]
    manager.on_change(event)
    assert removals.removed == [
        (entry.fragment_id, "data_invalidated") for entry in expected
    ]
    assert list(directory.free_list._keys) == free_before + [
        entry.dpc_key for entry in expected
    ]
    assert manager.fragments_invalidated - count == len(expected)
    assert not any(entry.is_valid for entry in expected)
