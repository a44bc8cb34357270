"""Change notification for the database: the root of data-driven invalidation.

"Fragments may become invalid due to, for instance, expiration of the ttl or
updates to the underlying data sources." (§4.3.3)

Every mutation the engine performs emits a :class:`ChangeEvent` on the
database's :class:`TriggerBus`.  The BEM's invalidation manager subscribes
and maps events to fragment dependencies, marking affected directory entries
invalid — exactly the "cache invalidation manager monitors fragments" role
in the paper.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

_OPERATIONS = (INSERT, UPDATE, DELETE)


_new_event = tuple.__new__


class ChangeEvent(tuple):
    """One committed row mutation.

    ``row`` is the post-image (``None`` for deletes); ``old_row`` the
    pre-image (``None`` for inserts).  ``changed_columns`` is populated for
    updates so listeners can do column-granular dependency matching.

    The event is the tuple ``(table, operation, key, row, old_row,
    changed_columns)``: a ``tuple`` subclass with no instance storage and
    read-only fields, built once per committed row, so a listener may also
    unpack it in that order.
    """

    __slots__ = ()

    #: The field names in tuple order, as a named tuple has them.
    _fields = ("table", "operation", "key", "row", "old_row", "changed_columns")

    def __new__(
        cls,
        table: str,
        operation: str,
        key: object,
        row: Optional[Dict[str, object]] = None,
        old_row: Optional[Dict[str, object]] = None,
        changed_columns: tuple = (),
    ) -> "ChangeEvent":
        if operation not in _OPERATIONS:
            raise ValueError("unknown operation %r" % (operation,))
        return _new_event(cls, (table, operation, key, row, old_row, changed_columns))

    table = property(itemgetter(0))
    operation = property(itemgetter(1))
    key = property(itemgetter(2))
    row = property(itemgetter(3))
    old_row = property(itemgetter(4))
    changed_columns = property(itemgetter(5))

    def __repr__(self) -> str:
        return (
            "ChangeEvent(table=%r, operation=%r, key=%r, row=%r, old_row=%r, "
            "changed_columns=%r)" % tuple(self)
        )

    def __reduce__(self):
        return (ChangeEvent, tuple(self))


Listener = Callable[[ChangeEvent], None]


class TriggerBus:
    """Dispatches :class:`ChangeEvent` objects to subscribed listeners.

    Listeners can subscribe to a single table or to all tables (``None``).
    Dispatch order is subscription order.  Listeners must not mutate the
    database from inside a callback; nothing enforces this, and a
    re-entrant mutation would publish its event before the remaining
    listeners of the first one have run.
    """

    def __init__(self) -> None:
        self._by_table: Dict[str, List[Listener]] = {}
        self._global: List[Listener] = []
        self.events_dispatched = 0

    def subscribe(self, listener: Listener, table: Optional[str] = None) -> None:
        """Register ``listener`` for one table, or every table if ``None``."""
        if table is None:
            self._global.append(listener)
        else:
            self._by_table.setdefault(table, []).append(listener)

    def unsubscribe(self, listener: Listener, table: Optional[str] = None) -> None:
        """Remove a previously subscribed listener."""
        if table is None:
            self._global.remove(listener)
        else:
            self._by_table.get(table, []).remove(listener)

    def publish(self, event: ChangeEvent) -> None:
        """Dispatch one change event to matching listeners."""
        self.events_dispatched += 1
        for listener in self._by_table.get(event[0], ()):  # event.table
            listener(event)
        for listener in self._global:
            listener(event)

    def listener_count(self, table: Optional[str] = None) -> int:
        """Listeners for one table, or in total for None."""
        if table is None:
            return len(self._global) + sum(
                len(listeners) for listeners in self._by_table.values()
            )
        return len(self._by_table.get(table, ()))
