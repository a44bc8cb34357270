"""Tests for row storage, indexes maintenance, and change events."""

import pickle

import pytest

from repro.database.schema import schema
from repro.database.table import Table
from repro.database.triggers import (
    DELETE,
    INSERT,
    UPDATE,
    ChangeEvent,
    TriggerBus,
)
from repro.errors import IntegrityError, SchemaError


@pytest.fixture
def table():
    return Table(
        schema(
            "products",
            [("pid", "str"), ("category", "str"), ("price", "float")],
        )
    )


def seed(table):
    table.insert({"pid": "a", "category": "books", "price": 10.0})
    table.insert({"pid": "b", "category": "books", "price": 20.0})
    table.insert({"pid": "c", "category": "toys", "price": 5.0})


class TestInsert:
    def test_insert_and_get(self, table):
        seed(table)
        assert table.get("a")["price"] == 10.0
        assert len(table) == 3

    def test_duplicate_pk_rejected(self, table):
        seed(table)
        with pytest.raises(IntegrityError):
            table.insert({"pid": "a", "category": "x", "price": 1.0})

    def test_returned_row_is_a_copy(self, table):
        seed(table)
        row = table.get("a")
        row["price"] = 999.0
        assert table.get("a")["price"] == 10.0


class TestUpdate:
    def test_update_by_key(self, table):
        seed(table)
        assert table.update({"price": 11.0}, key="a") == 1
        assert table.get("a")["price"] == 11.0

    def test_noop_update_returns_zero(self, table):
        seed(table)
        assert table.update({"price": 10.0}, key="a") == 0

    def test_update_missing_key_is_zero(self, table):
        seed(table)
        assert table.update({"price": 1.0}, key="zzz") == 0

    def test_update_missing_key_validates_no_value(self, table):
        seed(table)
        assert table.update({"price": "free"}, key="zzz") == 0

    def test_update_unknown_column_rejected(self, table):
        seed(table)
        with pytest.raises(SchemaError):
            table.update({"nope": 1.0}, key="a")
        with pytest.raises(SchemaError):
            table.update({"nope": 1.0}, key="zzz")

    def test_update_pk_forbidden(self, table):
        seed(table)
        with pytest.raises(SchemaError):
            table.update({"pid": "z"}, key="a")

    def test_update_validates_types(self, table):
        seed(table)
        with pytest.raises(SchemaError):
            table.update({"price": "free"}, key="a")


class TestDelete:
    def test_delete_by_key(self, table):
        seed(table)
        assert table.delete(key="a") == 1
        assert table.get("a") is None

    def test_delete_missing_key_is_zero(self, table):
        seed(table)
        assert table.delete(key="zzz") == 0
        assert len(table) == 3


class TestIndexes:
    def test_lookup_via_index(self, table):
        table.create_index("category")
        seed(table)
        rows = table.lookup("category", "books")
        assert {row["pid"] for row in rows} == {"a", "b"}

    def test_lookup_without_index_scans(self, table):
        seed(table)
        rows = table.lookup("category", "toys")
        assert [row["pid"] for row in rows] == ["c"]

    def test_lookup_unknown_column_rejected(self, table):
        seed(table)
        with pytest.raises(SchemaError):
            table.lookup("nope", 1)

    def test_index_created_after_rows_backfills(self, table):
        seed(table)
        index = table.create_index("category")
        assert len(index) == 3

    def test_index_follows_updates(self, table):
        table.create_index("category")
        seed(table)
        table.update({"category": "toys"}, key="a")
        assert {row["pid"] for row in table.lookup("category", "toys")} == {"a", "c"}
        assert {row["pid"] for row in table.lookup("category", "books")} == {"b"}

    def test_index_follows_deletes(self, table):
        table.create_index("category")
        seed(table)
        table.delete(key="c")
        assert table.lookup("category", "toys") == []


class TestChangeEvents:
    def test_insert_event(self):
        bus = TriggerBus()
        events = []
        bus.subscribe(events.append)
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)
        table.insert({"k": 1, "v": 10})
        assert len(events) == 1
        assert events[0].operation == INSERT
        assert events[0].key == 1
        assert events[0].row == {"k": 1, "v": 10}

    def test_update_event_carries_images_and_columns(self):
        bus = TriggerBus()
        events = []
        bus.subscribe(events.append)
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)
        table.insert({"k": 1, "v": 10})
        table.update({"v": 20}, key=1)
        event = events[-1]
        assert event.operation == UPDATE
        assert event.old_row["v"] == 10
        assert event.row["v"] == 20
        assert event.changed_columns == ("v",)

    def test_noop_update_emits_nothing(self):
        bus = TriggerBus()
        events = []
        bus.subscribe(events.append)
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)
        table.insert({"k": 1, "v": 10})
        table.update({"v": 10}, key=1)
        assert len(events) == 1  # just the insert

    def test_delete_event(self):
        bus = TriggerBus()
        events = []
        bus.subscribe(events.append)
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)
        table.insert({"k": 1, "v": 10})
        table.delete(key=1)
        assert events[-1].operation == DELETE
        assert events[-1].old_row == {"k": 1, "v": 10}

    def test_listener_cannot_reach_the_stored_row(self):
        bus = TriggerBus()
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)

        def vandal(event):
            for image in (event.row, event.old_row):
                if image is not None:
                    image["v"] = -1

        bus.subscribe(vandal)
        table.insert({"k": 1, "v": 10})
        assert table.get(1) == {"k": 1, "v": 10}
        table.update({"v": 20}, key=1)
        assert table.get(1) == {"k": 1, "v": 20}
        assert list(table.scan()) == [{"k": 1, "v": 20}]
        table.update({"v": 30}, key=1)
        assert table.get(1) == {"k": 1, "v": 30}


class TestPublishedEventForm:
    """Mutations build their events positionally, skipping the keyword
    constructor; each must equal the event built with keywords."""

    def published(self):
        bus = TriggerBus()
        events = []
        bus.subscribe(events.append)
        table = Table(schema("t", [("k", "int"), ("v", "int")]), bus=bus)
        table.insert({"k": 1, "v": 10})
        table.update({"v": 20}, key=1)
        table.delete(key=1)
        return events

    def keyword_built(self):
        return [
            ChangeEvent(table="t", operation=INSERT, key=1, row={"k": 1, "v": 10}),
            ChangeEvent(
                table="t", operation=UPDATE, key=1, row={"k": 1, "v": 20},
                old_row={"k": 1, "v": 10}, changed_columns=("v",),
            ),
            ChangeEvent(table="t", operation=DELETE, key=1, old_row={"k": 1, "v": 20}),
        ]

    def test_fields_match_the_keyword_form(self):
        for event, expected in zip(self.published(), self.keyword_built()):
            assert type(event) is ChangeEvent
            assert event == expected
            for name in ChangeEvent._fields:
                assert getattr(event, name) == getattr(expected, name)

    def test_repr_and_pickle_match_the_keyword_form(self):
        for event, expected in zip(self.published(), self.keyword_built()):
            assert repr(event) == repr(expected)
            copy = pickle.loads(pickle.dumps(event))
            assert type(copy) is ChangeEvent
            assert copy == expected
            assert pickle.dumps(event) == pickle.dumps(expected)

    def test_keyword_constructor_still_checks_the_operation(self):
        with pytest.raises(ValueError):
            ChangeEvent("t", "upsert", 1)


class TestCounters:
    def test_get_counts_one_row(self, table):
        seed(table)
        table.reset_counters()
        assert table.get("c")["price"] == 5.0
        assert table.rows_read == 1

    def test_index_lookup_counts_only_matches(self, table):
        table.create_index("category")
        seed(table)
        table.reset_counters()
        assert len(table.lookup("category", "books")) == 2
        assert table.rows_read == 2

    def test_scan_counts_all_rows_examined(self, table):
        seed(table)
        table.reset_counters()
        list(table.scan(lambda row: row["category"] == "toys"))
        assert table.rows_read == 3

    def test_reset_counters(self, table):
        seed(table)
        table.reset_counters()
        assert table.rows_read == 0
        assert table.rows_written == 0
