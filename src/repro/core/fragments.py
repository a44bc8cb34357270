"""Fragment identity, metadata, and data dependencies.

The tagging process (§4.3.1) "assigns a unique identifier to each cacheable
fragment, along with the appropriate metadata (e.g., time-to-live)".  The
cache directory keys entries by ``fragmentID``, which the paper defines as
``name + parameterList``: the block name identifies the tagged code block,
and the parameter list captures every input that changes the block's output
(query string parameters, the user id for personalized blocks, ...).

Getting the parameter list right is what makes the DPC *correct* where
URL-keyed proxies are not: Bob's greeting block has fragmentID
``greeting?user=bob`` while Alice's (anonymous) has ``greeting?user=``, so
they can never collide in the directory even though their request URL is
identical.

A :class:`FragmentID` is that ``(name, parameterList)`` pair as a tuple;
the directory keys on the pair, and the ``greeting?user=bob`` string is
rendered only where a string is read (reports, ESI ``src``).
Every cacheable block of every request asks for its id, so
:meth:`FragmentID.create` interns the common shapes: a repeated block gets
the same id object back from a bounded table instead of a fresh
canonicalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import ConfigurationError


#: Percent-encodings of the characters that delimit a canonical fragmentID.
#: Escaping them in the name, keys and values keeps the rendering
#: injective: ``q="x&user=bob"`` cannot render like ``q="x", user="bob"``.
_QUOTE = str.maketrans({"%": "%25", "&": "%26", "=": "%3D", "?": "%3F"})


def quote_reserved(text: object) -> str:
    """``str(text)`` with ``%``, ``&``, ``=`` and ``?`` percent-encoded."""
    return str(text).translate(_QUOTE)


def _canonical(name: str, params: Tuple[Tuple[str, str], ...]) -> str:
    """``name?k1=v1&k2=v2``, escaping reserved characters in every part."""
    if not params:
        return quote_reserved(name)
    return "%s?%s" % (
        quote_reserved(name),
        "&".join([quote_reserved(k) + "=" + quote_reserved(v) for k, v in params]),
    )


#: Builds an id (or a dependency) without a Python-level ``__new__`` call.
_new_id = tuple.__new__

#: Most ids :meth:`FragmentID.create` keeps interned.  A full table is
#: cleared and refills with the ids asked for next, so a working set
#: larger than this costs what it cost before interning, never more
#: memory.
INTERN_LIMIT = 1 << 15

#: The interned ids: a bare name for an id without params, and
#: ``(name, key, value)`` for a one-param id.
_interned: Dict[object, "FragmentID"] = {}


class FragmentID(tuple):
    """Unique fragment identifier: block name plus canonicalized parameters.

    The id *is* the ``(name, params)`` pair: a ``tuple`` subclass with no
    instance storage, whose ``params`` are the sorted ``(str, str)``
    pairs, so logically identical invocations map to the same identifier
    regardless of call-site argument order.  Equality, ordering and hashing
    are the pair's own (an id equals the plain tuple ``(name, params)``),
    computed in C, which makes an id cheap to probe: every cacheable block
    asks :meth:`create` for one per request, and the cache directory and
    the insight layer key on the id itself.  A repeated block gets its
    interned id back rather than a new one.  The canonical string is
    rendered only where a string is read (:meth:`canonical`).  Instances
    are immutable, so sharing one is safe.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, params: Tuple[Tuple[str, str], ...] = ()
    ) -> "FragmentID":
        return _new_id(cls, (name, params))

    #: The block name.
    name = property(itemgetter(0))
    #: The sorted ``(key, value)`` string pairs.
    params = property(itemgetter(1))

    @staticmethod
    def create(name: str, params: Optional[Mapping[str, object]] = None) -> "FragmentID":
        """Build a FragmentID from a name and a parameter mapping.

        An id without params, or with one param, whose name is an exact
        ``str`` and whose key and value are each an exact ``str`` or
        ``int`` is interned: asking again returns the same object.  Only
        those inputs can key the table safely.  ``True``, ``1`` and ``1.0``
        are equal dict keys but render ``"True"``, ``"1"`` and ``"1.0"``,
        and any other object may render differently from one call to the
        next, so every other input is canonicalized afresh.  The table
        holds at most :data:`INTERN_LIMIT` ids.
        """
        if not name:
            raise ConfigurationError("fragment name cannot be empty")
        if not params:
            if type(name) is not str:
                return _new_id(FragmentID, (name, ()))
            fragment_id = _interned.get(name)
            if fragment_id is None:
                fragment_id = _intern(name, (name, ()))
            return fragment_id
        if len(params) == 1:
            (key,) = params
            value = params[key]
            if (
                type(name) is str
                and (type(key) is str or type(key) is int)
                and (type(value) is str or type(value) is int)
            ):
                memo = (name, key, value)
                fragment_id = _interned.get(memo)
                if fragment_id is None:
                    fragment_id = _intern(memo, (name, ((str(key), str(value)),)))
                return fragment_id
            return _new_id(FragmentID, (name, ((str(key), str(value)),)))
        return _new_id(
            FragmentID,
            (name, tuple(sorted((str(k), str(v)) for k, v in params.items()))),
        )

    def canonical(self) -> str:
        """The id's string form, rendered on each call.

        ``name?k1=v1&k2=v2``, with ``%``, ``&``, ``=`` and ``?`` inside the
        name, keys and values percent-encoded so distinct ids never share
        a canonical.  This is also (deliberately) the quantity whose byte
        length motivates the integer dpcKey: fragmentIDs "are typically
        quite long, especially those that include a list of parameters"
        (§4.3.3).
        """
        return _canonical(self[0], self[1])

    __str__ = canonical

    def __repr__(self) -> str:
        return "FragmentID(name=%r, params=%r)" % (self[0], self[1])

    def __reduce__(self):
        return (FragmentID, (self[0], self[1]))


def _intern(memo: object, fields: Tuple[str, tuple]) -> FragmentID:
    """Build the id for ``fields`` and intern it under ``memo``."""
    if len(_interned) >= INTERN_LIMIT:
        _interned.clear()
    fragment_id = _interned[memo] = _new_id(FragmentID, fields)
    return fragment_id


class Dependency(tuple):
    """A data-source dependency of a fragment.

    A fragment depends on a ``table``, optionally narrowed along three
    independent axes:

    * ``key`` — one specific row (by primary key);
    * ``column`` — only changes that touch this column matter;
    * ``where_column``/``where_value`` — only rows whose value in
      ``where_column`` equals ``where_value`` matter (e.g. a category
      listing depends on ``products`` rows *in that category*).

    A database :class:`~repro.database.triggers.ChangeEvent` matches when
    the table matches and every given narrowing also matches.

    As with :class:`FragmentID`, the dependency *is* the tuple
    ``(table, key, column, where_column, where_value)``: a ``tuple``
    subclass with no instance storage and read-only fields, so a miss
    builds one without a frozen dataclass's per-field ``__setattr__``, and
    equality and hashing are the tuple's (and the dataclass's were).
    Instances are immutable.
    """

    __slots__ = ()

    #: The field names in tuple order (as a named tuple has them, so that
    #: ``dataclasses.asdict`` on metadata rebuilds a dependency by position).
    _fields = ("table", "key", "column", "where_column", "where_value")

    def __new__(
        cls,
        table: str,
        key: Optional[object] = None,
        column: Optional[str] = None,
        where_column: Optional[str] = None,
        where_value: Optional[object] = None,
    ) -> "Dependency":
        return _new_id(cls, (table, key, column, where_column, where_value))

    table = property(itemgetter(0))
    key = property(itemgetter(1))
    column = property(itemgetter(2))
    where_column = property(itemgetter(3))
    where_value = property(itemgetter(4))

    def __repr__(self) -> str:
        return (
            "Dependency(table=%r, key=%r, column=%r, where_column=%r, where_value=%r)"
            % tuple(self)
        )

    def __reduce__(self):
        return (Dependency, tuple(self))

    def matches(
        self,
        table: str,
        key: object,
        changed_columns: Iterable[str],
        row: Optional[Dict[str, object]] = None,
        old_row: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Whether a change event falls within this dependency."""
        dep_table, dep_key, column, where_column, where_value = self
        if table != dep_table:
            return False
        if dep_key is not None and key != dep_key:
            return False
        if column is not None:
            changed = tuple(changed_columns)
            # Inserts/deletes report no changed columns: treat them as
            # touching every column of the row.
            if changed and column not in changed:
                return False
        if where_column is not None:
            # Match against either image: an update that moves a row into
            # OR out of the watched set invalidates fragments built on it.
            images = [img for img in (row, old_row) if img is not None]
            if images and not any(
                img.get(where_column) == where_value for img in images
            ):
                return False
        return True


def check_ttl(ttl: Optional[float]) -> None:
    """Reject a TTL that is given but not a positive number (NaN included)."""
    if ttl is not None and not ttl > 0:
        raise ConfigurationError("ttl must be positive when given, not %r" % (ttl,))


@dataclass(frozen=True)
class FragmentMetadata:
    """Cacheability settings attached to a tagged code block.

    ``ttl`` is in (virtual) seconds; ``None`` means no time-based expiry.
    ``dependencies`` drive update-based invalidation.  ``cacheable=False``
    marks a block that was deliberately left untagged — it always executes
    and ships with the page (the ``X_j = 0`` case of the analysis).
    """

    ttl: Optional[float] = None
    dependencies: Tuple[Dependency, ...] = ()
    cacheable: bool = True

    def __post_init__(self) -> None:
        check_ttl(self.ttl)


#: Allocates metadata without running its ``__init__``.
_new_object = object.__new__


def checked_metadata(
    ttl: Optional[float], dependencies: Tuple[Dependency, ...], cacheable: bool
) -> FragmentMetadata:
    """A :class:`FragmentMetadata` whose ``ttl`` was already checked.

    Fills the fields without running ``__init__``/``__post_init__``: a
    tagged block's TTL is checked once, when the block is tagged, and a
    miss then builds its metadata without checking it again.
    """
    metadata = _new_object(FragmentMetadata)
    fields = metadata.__dict__
    fields["ttl"] = ttl
    fields["dependencies"] = dependencies
    fields["cacheable"] = cacheable
    return metadata

