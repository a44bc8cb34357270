"""Tests for the database engine: DDL, table lookup, events and statistics."""

import pytest

from repro.database import Database, schema
from repro.database.triggers import INSERT, UPDATE
from repro.errors import QueryError, SchemaError


@pytest.fixture
def db():
    database = Database("test")
    table = database.create_table(
        schema(
            "products",
            [("pid", "str"), ("category", "str"), ("price", "float")],
        )
    )
    table.create_index("category")
    table.insert({"pid": "a", "category": "books", "price": 10.0})
    table.insert({"pid": "b", "category": "books", "price": 20.0})
    table.insert({"pid": "c", "category": "toys", "price": 5.0})
    return database


class TestDdl:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(schema("products", [("x", "int")]))

    def test_drop_table(self, db):
        db.drop_table("products")
        assert not db.has_table("products")
        assert db.table_names() == []
        with pytest.raises(SchemaError):
            db.drop_table("products")

    def test_unknown_table_query(self, db):
        with pytest.raises(QueryError):
            db.table("nope")

    def test_table_names_sorted(self, db):
        db.create_table(schema("authors", [("aid", "str")]))
        assert db.table_names() == ["authors", "products"]
        assert db.has_table("authors")


class TestSelect:
    def test_where_scan_touches_everything(self, db):
        db.reset_counters()
        rows = list(db.table("products").scan(lambda row: row["price"] > 7.0))
        assert sorted(row["pid"] for row in rows) == ["a", "b"]
        assert db.total_rows_read() == 3


class TestMutations:
    def test_update_via_sql(self, db):
        products = db.table("products")
        assert products.update({"price": 99.0}, key="a") == 1
        assert products.get("a")["price"] == 99.0
        assert db.total_rows_written() == 4

    def test_delete_via_sql(self, db):
        products = db.table("products")
        assert products.delete(key="c") == 1
        assert not products.lookup("category", "toys")
        assert sorted(row["pid"] for row in products.scan()) == ["a", "b"]


class TestEvents:
    def test_tables_publish_on_the_database_bus(self, db):
        events = []
        db.bus.subscribe(events.append)
        products = db.table("products")
        products.update({"price": 11.0}, key="a")
        products.insert({"pid": "d", "category": "toys", "price": 3.0})
        assert [(event.operation, event.key) for event in events] == [
            (UPDATE, "a"),
            (INSERT, "d"),
        ]


class TestStatistics:
    def test_rows_read_written_roll_up(self, db):
        db.reset_counters()
        products = db.table("products")
        list(products.scan())
        products.lookup("category", "books")
        products.update({"price": 0.0}, key="a")
        assert db.total_rows_read() == 5
        assert db.total_rows_written() == 1
