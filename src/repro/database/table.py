"""Row storage for one table: primary-key dict plus secondary indexes.

Tables are the unit of change notification (every mutation publishes a
:class:`~repro.database.triggers.ChangeEvent`) and of dependency declaration
for fragments (a fragment can depend on a whole table or on specific rows).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..errors import IntegrityError, SchemaError
from .indexes import HashIndex
from .schema import TableSchema
from .triggers import DELETE, INSERT, UPDATE, ChangeEvent, TriggerBus

Predicate = Callable[[Dict[str, object]], bool]

#: Builds a :class:`ChangeEvent` from its six fields in tuple order.  The
#: mutations below pass module-constant operations, so they skip the
#: keyword constructor and its operation check.
_event = tuple.__new__


class ReadTally:
    """Running total of rows read, shared by every table of one database.

    Each read bumps its table's ``rows_read`` and this total together, so
    :meth:`repro.database.Database.total_rows_read` is one attribute read
    instead of a sum over the tables.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: int = 0) -> None:
        self.rows = rows


class Table:
    """One table's rows, keyed by primary key, with optional hash indexes.

    Rows handed out by read methods are *copies*: callers cannot corrupt the
    store by mutating results, and old/new images in change events stay
    distinct.
    """

    def __init__(
        self,
        schema: TableSchema,
        bus: Optional[TriggerBus] = None,
        tally: Optional[ReadTally] = None,
    ) -> None:
        self.schema = schema
        #: The table's name (from its schema).
        self.name = schema.name
        self._bus = bus
        self._rows: Dict[object, Dict[str, object]] = {}
        self._indexes: Dict[str, HashIndex] = {}
        #: Rows touched by reads since the last counter reset; feeds the
        #: per-row query cost in the generation delay model.
        self.rows_read = 0
        self.rows_written = 0
        #: The owning database's running read total (a private one for a
        #: standalone table); kept in step with ``rows_read``.
        self.tally = tally if tally is not None else ReadTally()

    # -- index management -----------------------------------------------------

    def create_index(self, column: str) -> HashIndex:
        """Create (or return the existing) hash index on ``column``."""
        self.schema.column(column)  # validates existence
        if column in self._indexes:
            return self._indexes[column]
        index = HashIndex(self.name, column)
        for pk, row in self._rows.items():
            index.add(row[column], pk)
        self._indexes[column] = index
        return index

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Dict[str, object]) -> Dict[str, object]:
        """Insert a row; returns the validated stored row (a copy)."""
        validated = self.schema.validate_row(row)
        pk = validated[self.schema.primary_key]
        if pk in self._rows:
            raise IntegrityError(
                "duplicate primary key %r in table %r" % (pk, self.name)
            )
        self._rows[pk] = validated
        for column, index in self._indexes.items():
            index.add(validated[column], pk)
        self.rows_written += 1
        if self._bus is not None:
            self._bus.publish(
                _event(ChangeEvent, (self.name, INSERT, pk, dict(validated), None, ()))
            )
        return dict(validated)

    def update(self, changes: Dict[str, object], key: object) -> int:
        """Apply ``changes`` to the row with primary key ``key``.

        Returns 1 if the row changed, 0 if no row has that key or every
        value already matched.  Changing the primary key itself is not
        supported (no script in the reproduction needs it, and forbidding
        it keeps slot/index bookkeeping simple).
        """
        schema = self.schema
        if schema.primary_key in changes:
            raise SchemaError("updating the primary key is not supported")
        columns = []
        for name in changes:
            columns.append((name, schema.column(name)))
        old = self._rows.get(key)
        if old is None:
            return 0
        new = dict(old)
        changed_columns = []
        for name, column in columns:
            validated = column.validate_value(changes[name])
            if old[name] != validated:
                changed_columns.append(name)
            new[name] = validated
        if not changed_columns:
            return 0
        indexes = self._indexes
        for name in changed_columns:
            index = indexes.get(name)
            if index is not None:
                index.remove(old[name], key)
                index.add(new[name], key)
        self._rows[key] = new
        self.rows_written += 1
        # The replaced pre-image is referenced by nothing else now, so the
        # event may carry it as is; the stored row goes out as a copy.
        if self._bus is not None:
            self._bus.publish(
                _event(
                    ChangeEvent,
                    (self.name, UPDATE, key, dict(new), old, tuple(changed_columns)),
                )
            )
        return 1

    def delete(self, key: object) -> int:
        """Delete the row with primary key ``key``; returns 1, or 0 if absent."""
        old = self._rows.pop(key, None)
        if old is None:
            return 0
        for column, index in self._indexes.items():
            index.remove(old[column], key)
        self.rows_written += 1
        if self._bus is not None:
            self._bus.publish(
                _event(ChangeEvent, (self.name, DELETE, key, None, old, ()))
            )
        return 1

    # -- reads ------------------------------------------------------------------

    def get(self, key: object) -> Optional[Dict[str, object]]:
        """Fetch one row by primary key, or ``None``."""
        row = self._rows.get(key)
        if row is None:
            return None
        self.rows_read += 1
        self.tally.rows += 1
        return dict(row)

    def scan(self, where: Optional[Predicate] = None) -> Iterator[Dict[str, object]]:
        """Full scan in insertion order, optionally filtered.

        Every row examined counts as read, matching or not — that is what a
        real scan costs, and what the latency model charges for.
        """
        tally = self.tally
        for row in list(self._rows.values()):
            self.rows_read += 1
            tally.rows += 1
            if where is None or where(row):
                yield dict(row)

    def lookup(self, column: str, value: object) -> List[Dict[str, object]]:
        """Equality lookup, via the index on ``column`` when one exists."""
        index = self._indexes.get(column)
        if index is None:
            self.schema.column(column)  # validates existence
            return list(self.scan(lambda row: row[column] == value))
        rows = [dict(self._rows[pk]) for pk in index.lookup(value)]
        self.rows_read += len(rows)
        self.tally.rows += len(rows)
        return rows

    def keys(self) -> List[object]:
        """All primary keys, in insertion order."""
        return list(self._rows.keys())

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    # -- internals ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the rows-read/rows-written counters."""
        self.tally.rows -= self.rows_read
        self.rows_read = 0
        self.rows_written = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Table(%r, %d rows)" % (self.name, len(self))
