"""Tests for the data-driven invalidation manager."""

import pytest

from repro.core.bem import BackEndMonitor
from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.core.invalidation import InvalidationManager
from repro.database import Database, schema


def fid(name, **params):
    return FragmentID.create(name, params or None)


@pytest.fixture
def setup():
    db = Database()
    table = db.create_table(
        schema("products", [("pid", "str"), ("category", "str"), ("price", "float")])
    )
    directory = CacheDirectory(16)
    manager = InvalidationManager(directory)
    manager.attach(db.bus)
    return db, table, directory, manager


def cache(directory, manager, fragment_id, deps):
    directory.insert(fragment_id, FragmentMetadata(dependencies=deps), 10, 0.0)


class TestRowLevel:
    def test_matching_update_invalidates(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("detail", pid="a"),
              (Dependency("products", key="a"),))
        table.update({"price": 2.0}, key="a")
        assert directory.lookup(fid("detail", pid="a"), 0.0) is None
        assert manager.fragments_invalidated == 1

    def test_other_row_update_spares_fragment(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        table.insert({"pid": "b", "category": "books", "price": 1.0})
        cache(directory, manager, fid("detail", pid="a"),
              (Dependency("products", key="a"),))
        table.update({"price": 9.0}, key="b")
        assert directory.lookup(fid("detail", pid="a"), 0.0) is not None

    def test_delete_invalidates(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("detail", pid="a"),
              (Dependency("products", key="a"),))
        table.delete(key="a")
        assert directory.lookup(fid("detail", pid="a"), 0.0) is None


class TestWhereFiltered:
    def test_category_scoped_dependency(self, setup):
        """The §3.2.1 brokerage story: only the matching category dies."""
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        table.insert({"pid": "t", "category": "toys", "price": 1.0})
        cache(directory, manager, fid("listing", cat="books"),
              (Dependency("products", where_column="category",
                          where_value="books"),))
        cache(directory, manager, fid("listing", cat="toys"),
              (Dependency("products", where_column="category",
                          where_value="toys"),))
        table.update({"price": 5.0}, key="a")  # a books row
        assert directory.lookup(fid("listing", cat="books"), 0.0) is None
        assert directory.lookup(fid("listing", cat="toys"), 0.0) is not None

    def test_insert_into_watched_category_invalidates(self, setup):
        db, table, directory, manager = setup
        cache(directory, manager, fid("listing", cat="books"),
              (Dependency("products", where_column="category",
                          where_value="books"),))
        table.insert({"pid": "new", "category": "books", "price": 1.0})
        assert directory.lookup(fid("listing", cat="books"), 0.0) is None


class TestHousekeeping:
    def test_watcher_removed_after_invalidation(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("f"), (Dependency("products"),))
        table.update({"price": 2.0}, key="a")
        assert directory.dependents("products", "a") == []

    def test_stale_row_unindexed_eagerly(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("f"), (Dependency("products"),))
        # Invalidate behind the manager's back (e.g. TTL/eviction).
        directory.invalidate(fid("f"))
        assert directory.dependents("products", "a") == []
        table.update({"price": 2.0}, key="a")
        assert manager.fragments_invalidated == 0

    def test_desynced_row_cannot_kill_its_replacement(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("f"), (Dependency("products", key="a"),))
        directory.peek(fid("f")).is_valid = False  # desync: still indexed
        cache(directory, manager, fid("f"), (Dependency("products", key="b"),))
        table.update({"price": 2.0}, key="a")
        assert directory.lookup(fid("f"), 0.0) is not None
        assert manager.fragments_invalidated == 0

    def test_detach_all(self, setup):
        db, table, directory, manager = setup
        cache(directory, manager, fid("f"), (Dependency("products"),))
        manager.detach_all()
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        assert manager.events_seen == 0

    def test_multiple_dependencies_any_match(self, setup):
        db, table, directory, manager = setup
        reviews = db.create_table(schema("reviews", [("rid", "str")]))
        deps = (Dependency("products", key="a"), Dependency("reviews"))
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        cache(directory, manager, fid("page"), deps)
        reviews.insert({"rid": "r1"})
        assert directory.lookup(fid("page"), 0.0) is None


class TestKeyedIndex:
    """The per-row dependency index must be invisible except in scan cost."""

    def test_row_keyed_watcher_hit_via_index(self, setup):
        db, table, directory, manager = setup
        for pid in ("a", "b", "c"):
            table.insert({"pid": pid, "category": "books", "price": 1.0})
            cache(directory, manager, fid("detail", pid=pid),
                  (Dependency("products", key=pid),))
        table.update({"price": 9.0}, key="b")
        assert directory.lookup(fid("detail", pid="a"), 0.0) is not None
        assert directory.lookup(fid("detail", pid="b"), 0.0) is None
        assert directory.lookup(fid("detail", pid="c"), 0.0) is not None
        assert manager.fragments_invalidated == 1

    def test_watcher_keyed_to_two_rows_matches_either(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        table.insert({"pid": "b", "category": "books", "price": 1.0})
        deps = (Dependency("products", key="a"),
                Dependency("products", key="b"))
        cache(directory, manager, fid("pair"), deps)
        table.update({"price": 2.0}, key="b")
        assert directory.dependents("products", "a") == []
        assert directory.dependents("products", "b") == []
        assert directory.lookup(fid("pair"), 0.0) is None

    def test_mixed_keyed_and_unkeyed_dependencies(self, setup):
        db, table, directory, manager = setup
        reviews = db.create_table(schema("reviews", [("rid", "str")]))
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        deps = (Dependency("products", key="a"), Dependency("reviews"))
        cache(directory, manager, fid("page"), deps)
        # An event on an unrelated products row must not invalidate.
        table.insert({"pid": "z", "category": "toys", "price": 1.0})
        assert directory.lookup(fid("page"), 0.0) is not None
        # But the keyed row does.
        table.update({"price": 2.0}, key="a")
        assert directory.lookup(fid("page"), 0.0) is None

    def test_rewatch_after_invalidation(self, setup):
        db, table, directory, manager = setup
        table.insert({"pid": "a", "category": "books", "price": 1.0})
        for price in (2.0, 3.0):
            cache(directory, manager, fid("detail", pid="a"),
                  (Dependency("products", key="a"),))
            table.update({"price": price}, key="a")
            assert directory.lookup(fid("detail", pid="a"), 0.0) is None
        assert manager.fragments_invalidated == 2


def profile_block(bem, fragment_id, user):
    """One miss-or-hit on a fragment keyed to ``user``'s profile row."""
    meta = FragmentMetadata(dependencies=(Dependency("profiles", key=user),))
    return bem.process_block(fragment_id, lambda: meta, lambda: "<p>%s</p>" % user)


class TestIndexFollowsTheValidSet:
    """Evicted rows leave the dependency index with the entry itself."""

    def test_evicted_rows_are_not_indexed(self):
        bem = BackEndMonitor(capacity=100)
        for user in range(5000):
            profile_block(bem, fid("profile", user=user), user)
        directory = bem.directory
        valid = sorted(entry.dpc_key for entry in directory.valid_entries())
        assert valid == list(range(100))
        rows = directory._by_row["profiles"]
        assert len(rows) == 100
        assert sorted(key for bucket in rows.values() for key in bucket) == valid
        directory.check_invariants()

    def test_reinserted_fragment_is_indexed_once(self):
        bem = BackEndMonitor(capacity=1)
        for _ in range(50):
            profile_block(bem, fid("profile", user="a"), "a")
            profile_block(bem, fid("filler"), "b")  # evicts "a"
        profile_block(bem, fid("profile", user="a"), "a")
        entry = bem.directory.peek(fid("profile", user="a"))
        assert entry.dependencies == (Dependency("profiles", key="a"),)
        assert bem.directory._by_row["profiles"] == {"a": {entry.dpc_key: None}}
        assert bem.directory.dependents("profiles", "a") == [entry]


class TestKeyOrder:
    """Fragments killed together return to the freeList by dpcKey, so key
    assignment (and LRU's dpcKey tie-break) never depends on string hashing."""

    def test_next_misses_reuse_keys_in_ascending_order(self):
        db = Database()
        profiles = db.create_table(schema("profiles", [("uid", "str"), ("name", "str")]))
        profiles.insert({"uid": "u", "name": "ann"})
        bem = BackEndMonitor(capacity=8)
        bem.attach_database(db.bus)
        names = ["header", "greeting", "cart", "wishlist", "orders",
                 "recommendations", "settings", "footer"]
        for name in names:
            profile_block(bem, fid(name, user="u"), "u")
        profiles.update({"name": "bob"}, key="u")
        assert bem.invalidation.fragments_invalidated == 8
        keys = [profile_block(bem, fid(name), "u").key for name in names]
        assert keys == list(range(8))

    def test_dependents_come_in_dpc_key_order(self):
        directory = CacheDirectory(8)
        meta = FragmentMetadata(dependencies=(Dependency("products"),))
        names = ["f%d" % i for i in range(8)]
        for name in names:
            directory.insert(fid(name), meta, 10, 0.0)
        for name in reversed(names):
            directory.invalidate(fid(name))
        for name in names:  # keys come back off the freeList as 7, 6, ..., 0
            directory.insert(fid(name), meta, 10, 0.0)
        keys = [entry.dpc_key for entry in directory.dependents("products", "a")]
        assert keys == list(range(8))
