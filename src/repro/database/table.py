"""Row storage for one table: primary-key dict plus secondary indexes.

Tables are the unit of change notification (every mutation publishes a
:class:`~repro.database.triggers.ChangeEvent`) and of dependency declaration
for fragments (a fragment can depend on a whole table or on specific rows).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..errors import IntegrityError, SchemaError
from .indexes import HashIndex
from .schema import TableSchema
from .triggers import DELETE, INSERT, UPDATE, ChangeEvent, TriggerBus

Predicate = Callable[[Dict[str, object]], bool]


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

    @property
    def name(self) -> str:
        """The table's name (from its schema)."""
        return self.schema.name

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

    def has_index(self, column: str) -> bool:
        """Whether a hash index exists on ``column``."""
        return column in self._indexes

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
        self._publish(ChangeEvent(self.name, INSERT, pk, row=dict(validated)))
        return dict(validated)

    def update(
        self,
        changes: Dict[str, object],
        where: Optional[Predicate] = None,
        key: object = None,
    ) -> int:
        """Apply ``changes`` to matching rows; returns the count updated.

        Either a ``key`` (primary key) or a ``where`` predicate selects the
        rows; passing neither updates every row.  Changing the primary key
        itself is not supported (no script in the reproduction needs it, and
        forbidding it keeps slot/index bookkeeping simple).
        """
        if self.schema.primary_key in changes:
            raise SchemaError("updating the primary key is not supported")
        for column in changes:
            self.schema.column(column)
        updated = 0
        for pk in self._matching_keys(where, key):
            old = self._rows[pk]
            new = dict(old)
            changed_columns = []
            for column, value in changes.items():
                validated = self.schema.column(column).validate_value(value)
                if old[column] != validated:
                    changed_columns.append(column)
                new[column] = validated
            if not changed_columns:
                continue
            for column in changed_columns:
                if column in self._indexes:
                    self._indexes[column].remove(old[column], pk)
                    self._indexes[column].add(new[column], pk)
            self._rows[pk] = new
            updated += 1
            self.rows_written += 1
            self._publish(
                ChangeEvent(
                    self.name,
                    UPDATE,
                    pk,
                    row=dict(new),
                    old_row=dict(old),
                    changed_columns=tuple(changed_columns),
                )
            )
        return updated

    def delete(self, where: Optional[Predicate] = None, key: object = None) -> int:
        """Delete matching rows; returns the count deleted."""
        doomed = list(self._matching_keys(where, key))
        for pk in doomed:
            old = self._rows.pop(pk)
            for column, index in self._indexes.items():
                index.remove(old[column], pk)
            self.rows_written += 1
            self._publish(ChangeEvent(self.name, DELETE, pk, old_row=dict(old)))
        return len(doomed)

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

    def _matching_keys(
        self, where: Optional[Predicate], key: object
    ) -> Iterable[object]:
        if key is not None:
            return [key] if key in self._rows else []
        if where is None:
            return list(self._rows.keys())
        matches = []
        tally = self.tally
        for pk, row in self._rows.items():
            self.rows_read += 1
            tally.rows += 1
            if where(dict(row)):
                matches.append(pk)
        return matches

    def _publish(self, event: ChangeEvent) -> None:
        if self._bus is not None:
            self._bus.publish(event)

    # -- transaction support (undo primitives; never publish events) --------------

    def silent_delete(self, key: object) -> None:
        """Undo an INSERT: remove the row without emitting any event."""
        old = self._rows.pop(key)
        for column, index in self._indexes.items():
            index.remove(old[column], key)

    def silent_restore(self, key: object, row: Dict[str, object]) -> None:
        """Undo an UPDATE or DELETE: put the pre-image back, eventlessly."""
        current = self._rows.get(key)
        if current is not None:
            for column, index in self._indexes.items():
                if current[column] != row[column]:
                    index.remove(current[column], key)
                    index.add(row[column], key)
        else:
            for column, index in self._indexes.items():
                index.add(row[column], key)
        self._rows[key] = dict(row)

    def reset_counters(self) -> None:
        """Zero the rows-read/rows-written counters."""
        self.tally.rows -= self.rows_read
        self.rows_read = 0
        self.rows_written = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Table(%r, %d rows)" % (self.name, len(self))
