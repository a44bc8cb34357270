"""Table schemas for the in-memory relational engine.

The engine stands in for the paper's Oracle 8.1.6 back end.  Fragments
generated by dynamic scripts depend on query results; schemas give those
queries something typed to run against, and give the trigger machinery
(which drives fragment invalidation) well-defined column identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaError

#: Supported column types, mapped to the Python types accepted for them.
COLUMN_TYPES: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (float, int),
    "str": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError("invalid column name %r" % (self.name,))
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                "unknown column type %r (expected one of %s)"
                % (self.type, sorted(COLUMN_TYPES))
            )

    def validate_value(self, value: object) -> object:
        """Check (and lightly coerce) a value for this column.

        ``int`` values are accepted for ``float`` columns and coerced.
        ``bool`` is *not* accepted for ``int`` columns despite being a
        subclass in Python; mixing them up is almost always a bug.
        """
        if value is None:
            if not self.nullable:
                raise SchemaError("column %r is NOT NULL" % self.name)
            return None
        accepted = COLUMN_TYPES[self.type]
        if self.type in ("int", "float") and isinstance(value, bool):
            raise SchemaError(
                "column %r has type %s; got bool" % (self.name, self.type)
            )
        if not isinstance(value, accepted):
            raise SchemaError(
                "column %r has type %s; got %r" % (self.name, self.type, value)
            )
        if self.type == "float":
            return float(value)
        return value


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table: ordered columns plus a single-column primary key."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError("invalid table name %r" % (self.name,))
        if not self.columns:
            raise SchemaError("table %r has no columns" % self.name)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("table %r has duplicate column names" % self.name)
        # Not a field: equality, hashing and repr stay the declared ones.
        object.__setattr__(self, "_by_name", {c.name: c for c in self.columns})
        if self.primary_key not in names:
            raise SchemaError(
                "primary key %r is not a column of table %r"
                % (self.primary_key, self.name)
            )
        pk = self.column(self.primary_key)
        if pk.nullable:
            raise SchemaError("primary key column %r cannot be nullable" % pk.name)

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column by name; raises SchemaError if unknown."""
        col = self._by_name.get(name)
        if col is None:
            raise SchemaError("table %r has no column %r" % (self.name, name))
        return col

    def has_column(self, name: str) -> bool:
        """Whether the schema declares this column."""
        return name in self._by_name

    def validate_row(self, row: Dict[str, object]) -> Dict[str, object]:
        """Validate a full row dict against this schema.

        Missing nullable columns are filled with ``None``; missing non-null
        columns are an error; unknown keys are an error.
        """
        unknown = set(row) - set(self.column_names)
        if unknown:
            raise SchemaError(
                "row for table %r has unknown columns %s"
                % (self.name, sorted(unknown))
            )
        validated: Dict[str, object] = {}
        for col in self.columns:
            if col.name in row:
                validated[col.name] = col.validate_value(row[col.name])
            elif col.nullable:
                validated[col.name] = None
            else:
                raise SchemaError(
                    "row for table %r is missing NOT NULL column %r"
                    % (self.name, col.name)
                )
        return validated


def schema(
    name: str,
    columns: Sequence[Tuple[str, str]],
    primary_key: Optional[str] = None,
    nullable: Sequence[str] = (),
) -> TableSchema:
    """Compact schema constructor.

    >>> s = schema("users", [("user_id", "str"), ("age", "int")],
    ...            primary_key="user_id", nullable=["age"])
    >>> s.column("age").nullable
    True
    """
    nullable_set = set(nullable)
    cols = tuple(
        Column(col_name, col_type, nullable=col_name in nullable_set)
        for col_name, col_type in columns
    )
    if primary_key is None:
        primary_key = cols[0].name
    return TableSchema(name=name, columns=cols, primary_key=primary_key)
