"""Differential properties: ``FragmentID`` against its frozen-dataclass oracle.

``FragmentID`` is the ``(name, params)`` tuple itself: equality, ordering
and hashing are the tuple's, and the canonical string is rendered only
when asked for.  The frozen, ordered dataclass it replaced is kept here as
the oracle: equality, hash consistency and ordering must agree with it on
random ids, and so must the canonical string whenever no reserved
character (``%&=?``) appears.  The canonical must also be injective, which
the oracle's unescaped rendering was not: two ids are equal exactly when
their canonicals are, so keying the cache directory on the id and keying
it on the canonical string are the same partition.

``FragmentID.create`` interns ids without params or with one param whose
parts are exact ``str`` or ``int``.  The interned id must be the oracle's
id whatever else was interned first: ``True``, ``1`` and ``1.0`` are one
dict key but three renderings, and an object's ``str`` may change.
"""

import copy
import pickle
import string
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fragments
from repro.core.fragments import INTERN_LIMIT, FragmentID
from repro.errors import ConfigurationError

RESERVED = "%&=?"


@dataclass(frozen=True, order=True)
class ReferenceFragmentID:
    """The previous ``FragmentID``: a frozen dataclass, unescaped canonical."""

    name: str
    params: Tuple[Tuple[str, str], ...] = ()

    @staticmethod
    def create(name, params=None):
        items = ()
        if params:
            items = tuple(sorted((str(k), str(v)) for k, v in params.items()))
        return ReferenceFragmentID(name=name, params=items)

    def canonical(self):
        if not self.params:
            return self.name
        query = "&".join("%s=%s" % (k, v) for k, v in self.params)
        return "%s?%s" % (self.name, query)


# Small alphabets so that equal ids, shared prefixes and reserved
# characters all turn up often.
parts = st.text(alphabet="ab" + RESERVED, min_size=0, max_size=4)
names = st.text(alphabet="ab" + RESERVED, min_size=1, max_size=4)
values = st.one_of(parts, st.integers(min_value=-3, max_value=12))
params = st.one_of(
    st.none(),
    st.dictionaries(parts, values, max_size=3),
)
ids = st.tuples(names, params)


def both(spec):
    name, mapping = spec
    return FragmentID.create(name, mapping), ReferenceFragmentID.create(name, mapping)


@given(ids, ids)
@settings(max_examples=500)
def test_equality_hash_and_order_match_the_oracle(a, b):
    new_a, old_a = both(a)
    new_b, old_b = both(b)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    assert (new_a < new_b) == (old_a < old_b)
    assert (new_a <= new_b) == (old_a <= old_b)
    assert (new_a > new_b) == (old_a > old_b)
    assert (new_a >= new_b) == (old_a >= old_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    assert (new_a.name, new_a.params) == (old_a.name, old_a.params)


@given(st.lists(ids, max_size=8))
def test_sorting_matches_the_oracle(specs):
    pairs = [both(spec) for spec in specs]
    new_sorted = sorted(pair[0] for pair in pairs)
    old_sorted = sorted(pair[1] for pair in pairs)
    assert [(f.name, f.params) for f in new_sorted] == [
        (f.name, f.params) for f in old_sorted
    ]


@given(ids)
@settings(max_examples=300)
def test_canonical_matches_the_oracle_without_reserved_characters(spec):
    new, old = both(spec)
    rendered = old.name + "".join(k + v for k, v in old.params)
    if not any(char in rendered for char in RESERVED):
        assert new.canonical() == old.canonical()
        assert str(new) == old.canonical()


@given(ids, ids)
@settings(max_examples=500)
def test_distinct_ids_have_distinct_canonicals(a, b):
    new_a, _ = both(a)
    new_b, _ = both(b)
    assert (new_a == new_b) == (new_a.canonical() == new_b.canonical())


# Ints next to their own decimal strings: ``{"id": 5}`` and ``{"id": "5"}``
# are one fragment, and must render one canonical.
mixed_values = st.one_of(
    parts,
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-3, max_value=12).map(str),
)
mixed_ids = st.tuples(
    names,
    st.one_of(st.none(), st.dictionaries(parts, mixed_values, max_size=3)),
)


@given(mixed_ids, mixed_ids)
@example(("frag", {"id": 5}), ("frag", {"id": "5"}))
@example(("a", {"b": "c&d=e"}), ("a", {"b": "c", "d": "e"}))
@example(("a?b", {"k%": "50%"}), ("a%3Fb", {"k%25": "50%25"}))
@settings(max_examples=500)
def test_equal_exactly_when_canonicals_equal(a, b):
    new_a = FragmentID.create(*a)
    new_b = FragmentID.create(*b)
    assert (new_a == new_b) == (new_a.canonical() == new_b.canonical())
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
        assert str(new_a) == str(new_b)


@given(ids)
def test_copies_and_pickles_are_equal(spec):
    new, _ = both(spec)
    for clone in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
        assert type(clone) is FragmentID
        assert clone == new
        assert hash(clone) == hash(new)
        assert clone.canonical() == new.canonical()


@given(st.text(alphabet=string.ascii_letters + RESERVED + "%25", min_size=1, max_size=6))
def test_escaped_name_never_contains_a_bare_delimiter(name):
    canonical = FragmentID.create(name).canonical()
    assert not any(char in canonical for char in "&=?")


class Tagged(str):
    """A ``str`` subclass: equal to its text, but never interned."""


# Everything an interned key could be confused with: bools and floats equal
# to ints, ints next to their decimal strings, and ``str`` subclasses.
confusable = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -1.0]),
    st.sampled_from(["0", "1", "True", "1.0", "a"]),
    st.sampled_from(["0", "1", "a"]).map(Tagged),
)
confusable_ids = st.tuples(
    st.one_of(st.sampled_from(["f", "g"]), st.sampled_from(["f"]).map(Tagged)),
    st.one_of(
        st.none(),
        st.dictionaries(confusable, confusable, max_size=1),
        st.dictionaries(confusable, confusable, max_size=3),
    ),
)


@given(st.lists(confusable_ids, min_size=1, max_size=12))
@settings(max_examples=400)
def test_interned_ids_match_the_oracle(specs):
    for name, mapping in specs + specs:
        new = FragmentID.create(name, mapping)
        old = ReferenceFragmentID.create(name, mapping)
        assert type(new) is FragmentID
        assert (new.name, new.params) == (old.name, old.params)
        if mapping:
            reordered = dict(reversed(list(mapping.items())))
            assert FragmentID.create(name, reordered) == new


@pytest.mark.parametrize("order", [[1, True, 1.0, "1"], ["1", 1.0, True, 1]])
def test_equal_values_of_other_types_render_their_own_strings(order):
    rendered = {"1": "1", "True": "True", "1.0": "1.0"}
    for value in order:
        fragment_id = FragmentID.create("pin", {"v": value})
        assert fragment_id.params == (("v", rendered[str(value)]),)
        assert fragment_id.canonical() == "pin?v=" + str(value)


def test_keys_one_and_true_are_different_ids():
    one = FragmentID.create("pin", {1: "x"})
    true = FragmentID.create("pin", {True: "x"})
    assert one.params == (("1", "x"),)
    assert true.params == (("True", "x"),)
    assert one != true
    assert FragmentID.create("pin", {1: "x"}) == one


class Mutable:
    """An object whose ``str`` changes when it is mutated."""

    def __init__(self):
        self.version = 0

    def __str__(self):
        return "v%d" % self.version


def test_a_mutable_object_is_rendered_afresh():
    value, key = Mutable(), Mutable()
    assert FragmentID.create("m", {"k": value}).params == (("k", "v0"),)
    assert FragmentID.create("m", {key: 1}).params == (("v0", "1"),)
    value.version = key.version = 1
    assert FragmentID.create("m", {"k": value}).params == (("k", "v1"),)
    assert FragmentID.create("m", {key: 1}).params == (("v1", "1"),)


def test_a_memoizable_input_returns_the_same_object():
    assert FragmentID.create("frag", {"id": 243}) is FragmentID.create("frag", {"id": 243})
    assert FragmentID.create("frag", {"id": "x"}) is FragmentID.create("frag", {"id": "x"})
    assert FragmentID.create("frag", {7: 8}) is FragmentID.create("frag", {7: 8})
    bare = FragmentID.create("navbar")
    assert FragmentID.create("navbar", {}) is bare
    assert FragmentID.create("navbar", None) is bare


@pytest.mark.parametrize("params", [None, {}, {"id": 1}, {"a": 1, "b": 2}])
def test_an_empty_name_still_raises(params):
    with pytest.raises(ConfigurationError):
        FragmentID.create("", params)


def test_the_table_never_exceeds_its_bound():
    for i in range(INTERN_LIMIT + 100):
        FragmentID.create("bound", {"i": i})
        if i % 997 == 0:
            assert len(fragments._interned) <= INTERN_LIMIT
    assert len(fragments._interned) <= INTERN_LIMIT
    assert FragmentID.create("bound", {"i": 5}).params == (("i", "5"),)


def test_a_full_table_is_cleared_and_refilled(monkeypatch):
    monkeypatch.setattr(fragments, "INTERN_LIMIT", 8)
    for i in range(40):
        FragmentID.create("small", {"i": i})
        assert len(fragments._interned) <= 8
    assert FragmentID.create("small", {"i": 39}) is FragmentID.create("small", {"i": 39})
