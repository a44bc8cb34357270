"""Property: the database's running read total equals the per-table sum.

``Database.total_rows_read()`` is a running total that each table bumps as
it reads, instead of a sum over the tables.  Whatever mix of reads, writes,
counter resets, rolled-back transactions, SQL statements and table drops
runs, the total must equal ``sum(table.rows_read)`` after every step, even
in the middle of a partly consumed scan.
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
    st.tuples(st.just("update_key"), tables, keys),
    st.tuples(st.just("update_where"), tables, values),
    st.tuples(st.just("delete"), tables, keys),
    st.tuples(st.just("delete_where"), tables, values),
    st.tuples(st.just("insert"), tables, keys),
    st.tuples(st.just("reset_table"), tables, keys),
    st.tuples(st.just("reset_db"), tables, keys),
    st.tuples(st.just("rollback"), tables, keys),
    st.tuples(st.just("sql_select"), tables, values),
    st.tuples(st.just("sql_update"), tables, values),
    st.tuples(st.just("sql_delete"), tables, values),
    st.tuples(st.just("sql_insert"), tables, keys),
    st.tuples(st.just("recreate"), tables, keys),
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
    elif op == "update_key":
        table.update({"v": (n + 1) % 4}, key=n)
    elif op == "update_where":
        table.update({"v": (n + 2) % 4}, where=lambda row: row["v"] == n)
    elif op == "delete":
        table.delete(key=n)
    elif op == "delete_where":
        table.delete(where=lambda row: row["v"] == n)
    elif op == "insert":
        if n not in table:
            table.insert({"k": n, "v": n % 4})
    elif op == "reset_table":
        table.reset_counters()
    elif op == "reset_db":
        db.reset_counters()
    elif op == "rollback":
        db.begin()
        table.get(n)
        table.update({"v": 3}, where=lambda row: row["k"] >= n)
        list(table.scan())
        db.rollback()
    elif op == "sql_select":
        before = table.rows_read
        result = db.execute("SELECT * FROM %s WHERE v = ?" % name, (n,))
        assert result.rows_touched == table.rows_read - before
    elif op == "sql_update":
        db.execute("UPDATE %s SET v = ? WHERE v > ?" % name, ((n + 1) % 4, n))
    elif op == "sql_delete":
        db.execute("DELETE FROM %s WHERE v = ?" % name, (n,))
    elif op == "sql_insert":
        if n not in table:
            db.execute("INSERT INTO %s (k, v) VALUES (?, ?)" % name, (n, 0))
    elif op == "recreate":
        db.drop_table(name)
        table.get(n)  # a dropped table's reads no longer count
        table.scan()
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
