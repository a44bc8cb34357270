"""Property: the database's running read total equals the per-table sum.

``Database.total_rows_read()`` is a running total that each table bumps as
it reads, instead of a sum over the tables.  Whatever mix of ``get``,
``lookup``, ``scan``, ``insert``, ``update`` and ``delete`` calls, counter
resets and table drops runs, the total must equal ``sum(table.rows_read)``
after every step, even in the middle of a partly consumed scan.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database, schema
from repro.database.table import Table

TABLES = ("a", "b")  # "a" has an index on v; "b" does not
keys = st.integers(0, 7)
values = st.integers(0, 3)
tables = st.sampled_from(TABLES)

step = st.one_of(
    st.tuples(st.just("get"), tables, keys),
    st.tuples(st.just("scan"), tables, values),
    st.tuples(st.just("partial_scan"), tables, keys),
    st.tuples(st.just("lookup"), tables, values),
    st.tuples(st.just("insert"), tables, keys),
    st.tuples(st.just("update"), tables, keys),
    st.tuples(st.just("delete"), tables, keys),
    st.tuples(st.just("reset_table"), tables, keys),
    st.tuples(st.just("reset_db"), tables, keys),
    st.tuples(st.just("drop"), tables, keys),
)


def create(db, name):
    table = db.create_table(schema(name, [("k", "int"), ("v", "int")]))
    if name == "a":
        table.create_index("v")
    for k in range(0, 8, 2):
        table.insert({"k": k, "v": k % 4})
    return table


def fresh_db():
    db = Database()
    for name in TABLES:
        create(db, name)
    return db


def per_table_sum(db):
    return sum(db.table(name).rows_read for name in db.table_names())


def apply(db, op, name, n):
    table = db.table(name)
    if op == "get":
        table.get(n)
    elif op == "scan":
        list(table.scan(lambda row: row["v"] == n))
    elif op == "partial_scan":
        scan = table.scan()
        for _ in islice(scan, n):
            assert db.total_rows_read() == per_table_sum(db)
        scan.close()
    elif op == "lookup":
        table.lookup("v", n)
    elif op == "insert":
        if n not in table:
            table.insert({"k": n, "v": n % 4})
    elif op == "update":
        table.update({"v": (n + 1) % 4}, key=n)
    elif op == "delete":
        table.delete(key=n)
    elif op == "reset_table":
        table.reset_counters()
    elif op == "reset_db":
        db.reset_counters()
    elif op == "drop":
        db.drop_table(name)
        table.get(n)  # a dropped table's reads no longer count
        list(table.scan())
        create(db, name)


@given(st.lists(step, max_size=40))
@settings(max_examples=200, deadline=None)
def test_total_rows_read_is_the_per_table_sum(steps):
    db = fresh_db()
    assert db.total_rows_read() == per_table_sum(db)
    for op, name, n in steps:
        apply(db, op, name, n)
        assert db.total_rows_read() == per_table_sum(db)


def test_a_table_without_a_database_counts_its_own_reads():
    table = Table(schema("t", [("k", "int"), ("v", "int")]))
    for k in range(3):
        table.insert({"k": k, "v": k})
    table.get(1)
    list(table.scan())
    assert table.rows_read == table.tally.rows == 4
    table.reset_counters()
    assert table.rows_read == table.tally.rows == 0
