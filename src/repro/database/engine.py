"""The in-memory database engine: DDL, statement execution, and statistics.

Stands in for the paper's Oracle 8.1.6 instance.  It supports exactly what
the reproduction's dynamic scripts need — typed tables, equality-indexed
lookups, the tiny SQL dialect, and change notification — while tracking the
row-touch counts that feed the generation-delay model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import QueryError, SchemaError
from ..telemetry.tracing import NULL_TRACER
from .transactions import TransactionManager, undo_event_on
from .schema import TableSchema
from .sql import (
    PLACEHOLDER,
    Condition,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
    count_placeholders,
    parse,
)
from .table import ReadTally, Table
from .triggers import TriggerBus


@dataclass
class QueryResult:
    """Outcome of one executed statement.

    ``rows`` is populated for SELECT; ``rowcount`` is the number of rows
    returned (SELECT) or affected (INSERT/UPDATE/DELETE).  ``rows_touched``
    is the number of stored rows the execution examined — the quantity the
    latency model charges for.
    """

    rows: List[Dict[str, object]]
    rowcount: int
    rows_touched: int


class Database:
    """A named collection of tables sharing one trigger bus.

    Mutations publish change events through a :class:`TransactionManager`:
    in autocommit (the default) events reach listeners immediately; inside
    ``with db.transaction():`` they are delivered atomically at commit, or
    undone and discarded on rollback.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.bus = TriggerBus()
        self.transactions = TransactionManager(self.bus)
        self._tables: Dict[str, Table] = {}
        #: Rows read across all tables; every table adds its reads here.
        self._reads = ReadTally()
        self.statements_executed = 0
        self._queue = None
        self._queue_clock = None
        self._queue_service_s_per_row = 0.0
        #: Cumulative virtual seconds statements spent waiting for a
        #: connection (only grows while a bounded queue is attached).
        self.queue_wait_s = 0.0
        #: Tracer wrapping connection-pool waits in ``queue.wait`` spans
        #: (the only place the engine advances the shared clock).
        self.tracer = NULL_TRACER

    # -- bounded connection pool --------------------------------------------------

    def attach_queue(self, queue, clock, service_s_per_row: float = 5e-5) -> None:
        """Model a bounded connection pool in front of statement execution.

        ``queue`` is duck-typed (normally a
        :class:`repro.overload.queues.BoundedQueue`); each executed
        statement occupies a pool connection for
        ``rows_touched * service_s_per_row`` virtual seconds and advances
        ``clock`` by any queueing delay it experiences.  When the pool's
        waiting room is full the offer raises
        :class:`~repro.errors.QueueFullError` — callers running under a
        BEM should pre-screen admission (as
        :meth:`repro.appserver.server.ApplicationServer._screen_admission`
        does) so a mid-script rejection cannot leave a partially emitted
        template behind.
        """
        self._queue = queue
        self._queue_clock = clock
        self._queue_service_s_per_row = service_s_per_row

    def detach_queue(self) -> None:
        """Remove the connection-pool model; execution is free again."""
        self._queue = None
        self._queue_clock = None
        self._queue_service_s_per_row = 0.0

    # -- DDL ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema; its events publish transactionally."""
        if schema.name in self._tables:
            raise SchemaError("table %r already exists" % schema.name)
        # Tables publish through the transaction manager (same .publish
        # interface as the bus) so events can be buffered per-transaction.
        table = Table(schema, bus=self.transactions, tally=self._reads)
        self._tables[schema.name] = table
        return table

    # -- transactions ------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction; events buffer until commit."""
        self.transactions.begin()

    def commit(self) -> int:
        """Deliver the buffered events in order; returns how many."""
        return self.transactions.commit()

    def rollback(self) -> int:
        """Undo every mutation of the open transaction; returns how many."""
        return self.transactions.rollback(
            lambda event: undo_event_on(self.table(event.table), event)
        )

    def transaction(self):
        """``with db.transaction():`` — commit on success, rollback on error."""

        @contextmanager
        def _txn():
            self.begin()
            try:
                yield self
            except BaseException:
                self.rollback()
                raise
            self.commit()

        return _txn()

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is currently open."""
        return self.transactions.in_transaction

    def drop_table(self, name: str) -> None:
        """Remove a table and its rows."""
        if name not in self._tables:
            raise SchemaError("no table named %r" % name)
        table = self._tables.pop(name)
        # Take its reads out of the total, and keep later reads out too.
        self._reads.rows -= table.rows_read
        table.tally = ReadTally(table.rows_read)

    def table(self, name: str) -> Table:
        """Look up a table by name; raises QueryError if unknown."""
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError("no table named %r" % name) from None

    def table_names(self) -> List[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    # -- statement execution -----------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> QueryResult:
        """Parse and execute one statement with positional parameters."""
        statement = parse(sql)
        return self.execute_statement(statement, params)

    def execute_statement(
        self, statement: Statement, params: Sequence[object] = ()
    ) -> QueryResult:
        """Execute a pre-parsed statement with positional parameters."""
        expected = count_placeholders(statement)
        if expected != len(params):
            raise QueryError(
                "statement has %d placeholders but %d parameters were given"
                % (expected, len(params))
            )
        self.statements_executed += 1
        binder = _ParamBinder(params)
        if isinstance(statement, SelectStatement):
            result = self._execute_select(statement, binder)
        elif isinstance(statement, InsertStatement):
            result = self._execute_insert(statement, binder)
        elif isinstance(statement, UpdateStatement):
            result = self._execute_update(statement, binder)
        elif isinstance(statement, DeleteStatement):
            result = self._execute_delete(statement, binder)
        else:  # pragma: no cover
            raise QueryError("unsupported statement %r" % (statement,))
        if self._queue is not None:
            service_s = max(1, result.rows_touched) * self._queue_service_s_per_row
            placement = self._queue.offer(self._queue_clock.now(), service_s)
            if placement.wait_s > 0:
                self.queue_wait_s += placement.wait_s
                with self.tracer.span("queue.wait", queue="db"):
                    self._queue_clock.advance(placement.wait_s)
        return result

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(
        self, statement: SelectStatement, binder: "_ParamBinder"
    ) -> QueryResult:
        table = self.table(statement.table)
        bound = [(cond, binder.bind(cond.value)) for cond in statement.where]
        self._validate_columns(table, statement)
        before = table.rows_read
        rows = self._candidate_rows(table, bound)
        if statement.is_aggregate:
            rows = _aggregate_rows(statement, rows)
            if statement.limit is not None:
                rows = rows[: statement.limit]
            return QueryResult(
                rows=rows, rowcount=len(rows),
                rows_touched=table.rows_read - before,
            )
        if statement.order_by is not None:
            table.schema.column(statement.order_by)
            rows.sort(
                key=lambda row: _sort_key(row[statement.order_by]),
                reverse=statement.descending,
            )
        if statement.limit is not None:
            rows = rows[: statement.limit]
        if not statement.is_star:
            rows = [
                {column: row[column] for column in statement.columns} for row in rows
            ]
        return QueryResult(
            rows=rows, rowcount=len(rows), rows_touched=table.rows_read - before
        )

    def _validate_columns(self, table: Table, statement: SelectStatement) -> None:
        for column in statement.columns:
            table.schema.column(column)
        for cond in statement.where:
            table.schema.column(cond.column)
        for aggregate in statement.aggregates:
            if aggregate.column is not None:
                table.schema.column(aggregate.column)
        if statement.group_by is not None:
            table.schema.column(statement.group_by)

    def _candidate_rows(
        self, table: Table, bound: List[Tuple[Condition, object]]
    ) -> List[Dict[str, object]]:
        """Fetch rows matching all conditions, using one index if possible."""
        index_cond = None
        for cond, value in bound:
            if cond.op == "=" and (
                table.has_index(cond.column)
                or cond.column == table.schema.primary_key
            ):
                index_cond = (cond, value)
                break
        if index_cond is not None:
            cond, value = index_cond
            if cond.column == table.schema.primary_key and not table.has_index(
                cond.column
            ):
                row = table.get(value)
                candidates = [row] if row is not None else []
            else:
                candidates = table.lookup(cond.column, value)
            remaining = [(c, v) for c, v in bound if c is not cond]
        else:
            candidates = list(table.scan())
            remaining = bound
        return [
            row
            for row in candidates
            if all(cond.matches(row[cond.column], value) for cond, value in remaining)
        ]

    # -- INSERT / UPDATE / DELETE ---------------------------------------------

    def _execute_insert(
        self, statement: InsertStatement, binder: "_ParamBinder"
    ) -> QueryResult:
        table = self.table(statement.table)
        row = {
            column: binder.bind(value)
            for column, value in zip(statement.columns, statement.values)
        }
        table.insert(row)
        return QueryResult(rows=[], rowcount=1, rows_touched=1)

    def _execute_update(
        self, statement: UpdateStatement, binder: "_ParamBinder"
    ) -> QueryResult:
        table = self.table(statement.table)
        changes = {
            column: binder.bind(value) for column, value in statement.assignments
        }
        bound = [(cond, binder.bind(cond.value)) for cond in statement.where]
        before = table.rows_read
        predicate = _predicate_for(bound) if bound else None
        count = table.update(changes, where=predicate)
        return QueryResult(
            rows=[], rowcount=count, rows_touched=table.rows_read - before + count
        )

    def _execute_delete(
        self, statement: DeleteStatement, binder: "_ParamBinder"
    ) -> QueryResult:
        table = self.table(statement.table)
        bound = [(cond, binder.bind(cond.value)) for cond in statement.where]
        before = table.rows_read
        predicate = _predicate_for(bound) if bound else None
        count = table.delete(where=predicate)
        return QueryResult(
            rows=[], rowcount=count, rows_touched=table.rows_read - before + count
        )

    # -- statistics ----------------------------------------------------------------

    def total_rows_read(self) -> int:
        """Rows read across all tables since the last reset."""
        return self._reads.rows

    def total_rows_written(self) -> int:
        """Rows written across all tables since the last reset."""
        return sum(table.rows_written for table in self._tables.values())

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows: execution and wait totals under ``db.*``."""
        return [
            ("db.statements_executed", self.statements_executed),
            ("db.rows_read", self.total_rows_read()),
            ("db.queue_wait_s", round(self.queue_wait_s, 6)),
            ("db.tables", len(self._tables)),
        ]

    def reset_counters(self) -> None:
        """Zero statement and row counters on every table."""
        self.statements_executed = 0
        for table in self._tables.values():
            table.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Database(%r, tables=%s)" % (self.name, self.table_names())


class _ParamBinder:
    """Replaces ``?`` placeholders with positional parameters, in order."""

    def __init__(self, params: Sequence[object]) -> None:
        self._params = list(params)
        self._next = 0

    def bind(self, value: object) -> object:
        if value is PLACEHOLDER:
            bound = self._params[self._next]
            self._next += 1
            return bound
        return value


def _predicate_for(bound: List[Tuple[Condition, object]]):
    def predicate(row: Dict[str, object]) -> bool:
        return all(cond.matches(row[cond.column], value) for cond, value in bound)

    return predicate


def _aggregate_rows(
    statement: SelectStatement, rows: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Evaluate aggregates, optionally grouped by one column.

    SQL semantics: over an empty input, COUNT is 0 and the other
    aggregates are NULL; with GROUP BY, empty input yields no groups.
    """
    if statement.group_by is None:
        return [_aggregate_group(statement, None, rows)]
    groups: Dict[object, List[Dict[str, object]]] = {}
    order: List[object] = []
    for row in rows:
        key = row[statement.group_by]
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    order.sort(key=_sort_key)
    return [_aggregate_group(statement, key, groups[key]) for key in order]


def _aggregate_group(
    statement: SelectStatement, key: object, rows: List[Dict[str, object]]
) -> Dict[str, object]:
    result: Dict[str, object] = {}
    if statement.group_by is not None:
        result[statement.group_by] = key
    for aggregate in statement.aggregates:
        if aggregate.column is None:
            result[aggregate.result_name] = len(rows)
            continue
        values = [
            row[aggregate.column] for row in rows
            if row[aggregate.column] is not None
        ]
        if aggregate.func == "count":
            result[aggregate.result_name] = len(values)
        elif not values:
            result[aggregate.result_name] = None
        elif aggregate.func == "sum":
            result[aggregate.result_name] = sum(values)
        elif aggregate.func == "avg":
            result[aggregate.result_name] = sum(values) / len(values)
        elif aggregate.func == "min":
            result[aggregate.result_name] = min(values)
        elif aggregate.func == "max":
            result[aggregate.result_name] = max(values)
    return result


def _sort_key(value: object) -> Tuple[int, object]:
    """Total order with NULLs first and mixed types kept apart."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))
