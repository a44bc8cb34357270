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
"""

import copy
import pickle
import string
from dataclasses import dataclass
from typing import Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fragments import FragmentID

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
