"""In-memory relational engine substrate (stands in for Oracle 8.1.6).

Provides typed tables with keyed and equality-indexed access, and
row-level change notification.  The change events are what drive
data-dependency invalidation of cached fragments in the BEM.
"""

from .engine import Database
from .indexes import HashIndex
from .schema import Column, TableSchema, schema
from .table import Table
from .triggers import DELETE, INSERT, UPDATE, ChangeEvent, TriggerBus

__all__ = [
    "Database",
    "HashIndex",
    "Column",
    "TableSchema",
    "schema",
    "Table",
    "TriggerBus",
    "ChangeEvent",
    "INSERT",
    "UPDATE",
    "DELETE",
]
