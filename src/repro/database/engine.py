"""The in-memory database engine: DDL, table lookup, and statistics.

Stands in for the paper's Oracle 8.1.6 instance.  It supports exactly what
the reproduction's dynamic scripts need — typed tables with keyed and
equality-indexed access (the :class:`~repro.database.table.Table` API is
the data-access layer) and change notification — while tracking the
row-touch counts that feed the generation-delay model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import QueryError, SchemaError
from .schema import TableSchema
from .table import ReadTally, Table
from .triggers import TriggerBus


class Database:
    """A named collection of tables sharing one trigger bus.

    Every table publishes its change events straight to ``bus``: a
    listener sees each mutation as soon as the table applies it.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.bus = TriggerBus()
        self._tables: Dict[str, Table] = {}
        #: Rows read across all tables; every table adds its reads here.
        #: The object stays the same for the database's lifetime, so a
        #: reader may hold it and read ``tally.rows``.
        self.tally = ReadTally()

    # -- DDL ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema; its events publish on ``bus``."""
        if schema.name in self._tables:
            raise SchemaError("table %r already exists" % schema.name)
        table = Table(schema, bus=self.bus, tally=self.tally)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its rows."""
        if name not in self._tables:
            raise SchemaError("no table named %r" % name)
        table = self._tables.pop(name)
        # Take its reads out of the total, and keep later reads out too.
        self.tally.rows -= table.rows_read
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

    # -- statistics ----------------------------------------------------------------

    def total_rows_read(self) -> int:
        """Rows read across all tables since the last reset."""
        return self.tally.rows

    def total_rows_written(self) -> int:
        """Rows written across all tables since the last reset."""
        return sum(table.rows_written for table in self._tables.values())

    def metric_rows(self) -> List[Tuple[str, object]]:
        """Registry rows: read and table totals under ``db.*``."""
        return [
            ("db.rows_read", self.total_rows_read()),
            ("db.tables", len(self._tables)),
        ]

    def reset_counters(self) -> None:
        """Zero the row counters on every table."""
        for table in self._tables.values():
            table.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Database(%r, tables=%s)" % (self.name, self.table_names())
