"""Differential properties: ``SetInstruction`` against the slotted class it
replaced.

``SetInstruction`` is now a ``tuple`` subclass ``(key, content)`` with
read-only fields, like ``Dependency``.  The previous class is kept here as
the oracle: field values, equality and ``repr`` must agree with it on
random values, equal instructions must hash alike, copies and pickles must
come back as the same type and value, and assigning a field or a new
attribute must raise ``AttributeError``.  A SET is never equal to a GET or
a literal of the same key or text.  CI runs this file under two string
hash seeds: the tuple's hash comes from its content's.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.template import GetInstruction, Literal, SetInstruction


class ReferenceSetInstruction:
    """The previous ``SetInstruction``: slots and a guarded ``__setattr__``."""

    __slots__ = ("key", "content")

    def __init__(self, key, content):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "content", content)

    def __setattr__(self, name, value):
        raise AttributeError("SetInstruction is immutable")

    def __eq__(self, other):
        if not isinstance(other, ReferenceSetInstruction):
            return NotImplemented
        return self.key == other.key and self.content == other.content

    def __hash__(self):
        return hash((ReferenceSetInstruction, self.key, self.content))

    def __repr__(self):
        return "SetInstruction(key=%r, content=%r)" % (self.key, self.content)


# Small alphabets so that equal values turn up often.
keys = st.integers(0, 3)
contents = st.text(alphabet="ab<~é", max_size=3)


@given(keys, contents, keys, contents)
@settings(max_examples=300)
def test_values_match_the_oracle(key_a, content_a, key_b, content_b):
    new_a, old_a = SetInstruction(key_a, content_a), ReferenceSetInstruction(key_a, content_a)
    new_b, old_b = SetInstruction(key_b, content_b), ReferenceSetInstruction(key_b, content_b)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    assert (new_a.key, new_a.content) == (old_a.key, old_a.content)
    assert repr(new_a) == repr(old_a)
    # A reader may unpack the instruction in field order.
    key, content = new_a
    assert (key, content) == (key_a, content_a)


@given(keys, contents)
def test_a_set_never_equals_a_get_or_a_literal(key, content):
    instruction = SetInstruction(key, content)
    assert instruction != GetInstruction(key)
    assert GetInstruction(key) != instruction
    assert instruction != Literal(content)
    assert instruction in {SetInstruction(key, content)}


@given(keys, contents)
def test_copies_and_pickles_keep_type_and_value(key, content):
    value = SetInstruction(key, content)
    for clone in (
        copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    ):
        assert type(clone) is SetInstruction
        assert clone == value
        assert hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_assignment_raises_attribute_error():
    value = SetInstruction(1, "x")
    for field in ("key", "content"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert (value.key, value.content) == (1, "x")
