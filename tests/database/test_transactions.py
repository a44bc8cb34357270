"""Tests for transactions: atomic trigger delivery and rollback."""

import pytest

from repro.core.bem import BackEndMonitor
from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.core.template import GetInstruction, SetInstruction
from repro.database import Database, schema
from repro.errors import DatabaseError


@pytest.fixture
def db():
    database = Database()
    table = database.create_table(
        schema("accounts", [("k", "str"), ("balance", "float")])
    )
    table.create_index("balance")
    table.insert({"k": "a", "balance": 100.0})
    table.insert({"k": "b", "balance": 50.0})
    return database


class TestEventBuffering:
    def test_events_held_until_commit(self, db):
        events = []
        db.bus.subscribe(events.append)
        db.begin()
        db.table("accounts").update({"balance": 90.0}, key="a")
        db.table("accounts").update({"balance": 60.0}, key="b")
        assert events == []  # nothing delivered yet
        assert db.commit() == 2
        assert [e.key for e in events] == ["a", "b"]  # in order

    def test_autocommit_delivers_immediately(self, db):
        events = []
        db.bus.subscribe(events.append)
        db.table("accounts").update({"balance": 90.0}, key="a")
        assert len(events) == 1

    def test_context_manager_commits(self, db):
        events = []
        db.bus.subscribe(events.append)
        with db.transaction():
            db.table("accounts").update({"balance": 90.0}, key="a")
            assert events == []
        assert len(events) == 1
        assert not db.in_transaction

    def test_context_manager_rolls_back_on_error(self, db):
        events = []
        db.bus.subscribe(events.append)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.table("accounts").update({"balance": 0.0}, key="a")
                raise RuntimeError("boom")
        assert events == []
        assert db.table("accounts").get("a")["balance"] == 100.0
        assert not db.in_transaction


class TestRollback:
    def test_update_restored(self, db):
        db.begin()
        db.table("accounts").update({"balance": 1.0}, key="a")
        db.rollback()
        assert db.table("accounts").get("a")["balance"] == 100.0

    def test_insert_removed(self, db):
        db.begin()
        db.table("accounts").insert({"k": "c", "balance": 5.0})
        db.rollback()
        assert db.table("accounts").get("c") is None
        assert len(db.table("accounts")) == 2

    def test_delete_restored(self, db):
        db.begin()
        db.table("accounts").delete(key="b")
        db.rollback()
        assert db.table("accounts").get("b")["balance"] == 50.0

    def test_indexes_restored(self, db):
        table = db.table("accounts")
        db.begin()
        table.update({"balance": 999.0}, key="a")
        table.delete(key="b")
        db.rollback()
        assert [r["k"] for r in table.lookup("balance", 100.0)] == ["a"]
        assert [r["k"] for r in table.lookup("balance", 50.0)] == ["b"]
        assert table.lookup("balance", 999.0) == []

    def test_multi_step_rollback_in_reverse_order(self, db):
        table = db.table("accounts")
        db.begin()
        table.insert({"k": "c", "balance": 1.0})
        table.update({"balance": 2.0}, key="c")
        table.update({"balance": 3.0}, key="c")
        table.delete(key="c")
        db.rollback()
        assert table.get("c") is None  # net effect fully undone

    def test_pk_reusable_after_rolled_back_insert(self, db):
        db.begin()
        db.table("accounts").insert({"k": "c", "balance": 5.0})
        db.rollback()
        db.table("accounts").insert({"k": "c", "balance": 7.0})  # no conflict
        assert db.table("accounts").get("c")["balance"] == 7.0


class TestLifecycleErrors:
    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(DatabaseError):
            db.begin()
        db.rollback()

    def test_commit_without_begin(self, db):
        with pytest.raises(DatabaseError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(DatabaseError):
            db.rollback()

    def test_counters(self, db):
        db.begin()
        db.commit()
        db.begin()
        db.rollback()
        assert db.transactions.commits == 1
        assert db.transactions.rollbacks == 1


class TestInvalidationSemantics:
    """The point of it all: the BEM sees committed states only."""

    def _cached_fragment(self, db):
        bem = BackEndMonitor(capacity=8)
        bem.attach_database(db.bus)
        meta = FragmentMetadata(dependencies=(Dependency("accounts", key="a"),))
        fragment_id = FragmentID.create("summary", {"k": "a"})
        bem.process_block(fragment_id, lambda: meta, lambda: "v0")
        return bem, fragment_id, meta

    def test_no_invalidation_before_commit(self, db):
        bem, fragment_id, meta = self._cached_fragment(db)
        db.begin()
        db.table("accounts").update({"balance": 1.0}, key="a")
        # Mid-transaction: fragment still valid.
        assert isinstance(
            bem.process_block(fragment_id, lambda: meta, lambda: "X"), GetInstruction
        )
        db.commit()
        assert isinstance(
            bem.process_block(fragment_id, lambda: meta, lambda: "v1"), SetInstruction
        )

    def test_rolled_back_update_invalidates_nothing(self, db):
        bem, fragment_id, meta = self._cached_fragment(db)
        db.begin()
        db.table("accounts").update({"balance": 1.0}, key="a")
        db.rollback()
        assert isinstance(
            bem.process_block(fragment_id, lambda: meta, lambda: "X"), GetInstruction
        )
        assert bem.invalidation.fragments_invalidated == 0
