"""Differential properties: ``Dependency`` and ``ChangeEvent`` against the
frozen dataclasses they replaced.

Both are now ``tuple`` subclasses with read-only fields.  The dataclasses
are kept here as oracles: field values, equality, hashing and ``repr``
must agree with them on random values; copies and
pickles must come back as the same type and value; assigning a field or a
new attribute must raise ``AttributeError``.  The validations the types
carried must survive: an unknown change operation is a ``ValueError``,
and a non-positive or NaN TTL is a ``ConfigurationError`` both in the
public ``FragmentMetadata`` constructor and when a block is tagged, while
the metadata a tagged block materializes on a miss (which skips the
second check) equals the constructor's.  (``matches`` is checked against
the dataclass's in ``test_dependency_index.py``.)
"""

import copy
import dataclasses
import pickle
from dataclasses import dataclass
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fragments import Dependency, FragmentMetadata
from repro.core.tagging import BlockTag
from repro.database import DELETE, INSERT, UPDATE, ChangeEvent
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ReferenceDependency:
    """The previous ``Dependency``: a frozen dataclass."""

    table: str
    key: Optional[object] = None
    column: Optional[str] = None
    where_column: Optional[str] = None
    where_value: Optional[object] = None


@dataclass(frozen=True)
class ReferenceChangeEvent:
    """The previous ``ChangeEvent``: a frozen dataclass."""

    table: str
    operation: str
    key: object
    row: Optional[Dict[str, object]] = None
    old_row: Optional[Dict[str, object]] = None
    changed_columns: tuple = ()


DEPENDENCY_FIELDS = ("table", "key", "column", "where_column", "where_value")
EVENT_FIELDS = ("table", "operation", "key", "row", "old_row", "changed_columns")

# Small alphabets so that equal values turn up often.
tables = st.sampled_from(["a", "b"])
columns = st.sampled_from(["c", "d"])
values = st.one_of(st.none(), st.integers(0, 2), st.sampled_from(["0", "x"]))
dependency_args = st.fixed_dictionaries(
    {"table": tables},
    optional={
        "key": values,
        "column": st.one_of(st.none(), columns),
        "where_column": st.one_of(st.none(), columns),
        "where_value": values,
    },
)
rows = st.one_of(st.none(), st.dictionaries(columns, values, max_size=2))
event_args = st.fixed_dictionaries(
    {
        "table": tables,
        "operation": st.sampled_from([INSERT, UPDATE, DELETE]),
        "key": values,
    },
    optional={
        "row": rows,
        "old_row": rows,
        "changed_columns": st.lists(columns, max_size=2, unique=True).map(tuple),
    },
)


def both_dependencies(args):
    return Dependency(**args), ReferenceDependency(**args)


def both_events(args):
    return ChangeEvent(**args), ReferenceChangeEvent(**args)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@given(dependency_args, dependency_args)
@settings(max_examples=300)
def test_dependency_values_match_the_oracle(a, b):
    new_a, old_a = both_dependencies(a)
    new_b, old_b = both_dependencies(b)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    assert hash(new_a) == hash(old_a)
    assert [getattr(new_a, f) for f in DEPENDENCY_FIELDS] == [
        getattr(old_a, f) for f in DEPENDENCY_FIELDS
    ]
    assert repr(new_a) == repr(old_a).replace("ReferenceDependency", "Dependency", 1)
    # Positional construction in field order builds the same value.
    assert Dependency(*[getattr(old_a, f) for f in DEPENDENCY_FIELDS]) == new_a


@given(event_args, event_args)
@settings(max_examples=300)
def test_event_values_match_the_oracle(a, b):
    new_a, old_a = both_events(a)
    new_b, old_b = both_events(b)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    # Events carrying row images are unhashable, as the dataclass was.
    assert hash_or_error(new_a) == hash_or_error(old_a)
    assert [getattr(new_a, f) for f in EVENT_FIELDS] == [
        getattr(old_a, f) for f in EVENT_FIELDS
    ]
    assert repr(new_a) == repr(old_a).replace("ReferenceChangeEvent", "ChangeEvent", 1)
    # A listener may unpack the event in field order.
    assert tuple(new_a) == tuple(getattr(old_a, f) for f in EVENT_FIELDS)


@given(st.one_of(dependency_args.map(Dependency), event_args.map(lambda a: ChangeEvent(**a))))
def test_copies_and_pickles_keep_type_and_value(value):
    for clone in (
        copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    ):
        assert type(clone) is type(value)
        assert clone == value
        assert hash_or_error(clone) == hash_or_error(value)
        assert repr(clone) == repr(value)


@pytest.mark.parametrize(
    "value, fields",
    [
        (Dependency("t", key=1), DEPENDENCY_FIELDS),
        (ChangeEvent("t", UPDATE, 1, row={"c": 1}, old_row={"c": 0}), EVENT_FIELDS),
    ],
)
def test_assignment_raises_attribute_error(value, fields):
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_unknown_operation_is_rejected():
    with pytest.raises(ValueError):
        ChangeEvent(table="t", operation="upsert", key=1)
    with pytest.raises(ValueError):
        ChangeEvent("t", "upsert", 1)


@pytest.mark.parametrize("ttl", [float("nan"), 0, -1.0])
def test_bad_ttls_are_rejected(ttl):
    with pytest.raises(ConfigurationError):
        FragmentMetadata(ttl=ttl)
    with pytest.raises(ConfigurationError):
        BlockTag(name="b", ttl=ttl)


@given(
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=100.0)),
    st.booleans(),
    st.lists(dependency_args, max_size=2),
)
def test_tagged_metadata_equals_the_constructor(ttl, cacheable, deps):
    dependencies = tuple(Dependency(**args) for args in deps)
    tag = BlockTag(
        name="b", ttl=ttl, cacheable=cacheable,
        dependency_factory=lambda params: dependencies,
    )
    built = tag.metadata_for({})
    expected = FragmentMetadata(
        ttl=ttl, dependencies=dependencies, cacheable=cacheable
    )
    assert type(built) is FragmentMetadata
    assert built == expected
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    assert dataclasses.asdict(built) == dataclasses.asdict(expected)
    assert dataclasses.asdict(built)["dependencies"] == dependencies
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.ttl = 1.0
