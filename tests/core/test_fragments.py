"""Tests for fragment identity, metadata, and dependencies."""

import pytest

from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.errors import ConfigurationError


class TestFragmentID:
    def test_canonical_without_params(self):
        assert FragmentID.create("navbar").canonical() == "navbar"

    def test_canonical_sorts_params(self):
        a = FragmentID.create("listing", {"b": 2, "a": 1})
        b = FragmentID.create("listing", {"a": 1, "b": 2})
        assert a == b
        assert a.canonical() == "listing?a=1&b=2"

    def test_params_stringified(self):
        frag = FragmentID.create("f", {"n": 7})
        assert frag.canonical() == "f?n=7"

    def test_distinct_users_distinct_ids(self):
        """The Bob/Alice fix: same block, different params, different IDs."""
        bob = FragmentID.create("greeting", {"user": "bob"})
        alice = FragmentID.create("greeting", {"user": ""})
        assert bob != alice
        assert bob.canonical() != alice.canonical()

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            FragmentID.create("")

    def test_hashable_and_ordered(self):
        ids = {FragmentID.create("a"), FragmentID.create("b"), FragmentID.create("a")}
        assert len(ids) == 2
        assert FragmentID.create("a") < FragmentID.create("b")

    def test_reserved_characters_are_percent_encoded(self):
        """``&``, ``=``, ``?`` and ``%`` in a part cannot forge structure."""
        smuggled = FragmentID.create("search", {"q": "x&user=bob"})
        honest = FragmentID.create("search", {"q": "x", "user": "bob"})
        assert smuggled != honest
        assert honest.canonical() == "search?q=x&user=bob"
        assert smuggled.canonical() == "search?q=x%26user%3Dbob"
        assert FragmentID.create("a?b", {"k%": "50%"}).canonical() == "a%3Fb?k%25=50%25"

    def test_constructor_and_repr(self):
        frag = FragmentID("f", (("k", "v"),))
        assert frag == FragmentID.create("f", {"k": "v"})
        assert FragmentID(name="f", params=(("k", "v"),)) == frag
        assert repr(frag) == "FragmentID(name='f', params=(('k', 'v'),))"
        assert str(frag) == "f?k=v"

    def test_immutable(self):
        frag = FragmentID.create("f", {"k": 1})
        with pytest.raises(AttributeError):
            frag.name = "g"
        with pytest.raises(AttributeError):
            frag.params = ()
        with pytest.raises(AttributeError):
            frag.extra = 1


class TestFragmentMetadata:
    def test_defaults(self):
        meta = FragmentMetadata()
        assert meta.cacheable
        assert meta.ttl is None
        assert meta.dependencies == ()

    def test_zero_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            FragmentMetadata(ttl=0)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            FragmentMetadata(ttl=-5)

    def test_nan_ttl_rejected(self):
        """``nan <= 0`` is False; a NaN TTL would expire on every lookup."""
        with pytest.raises(ConfigurationError):
            FragmentMetadata(ttl=float("nan"))

    def test_infinite_ttl_accepted(self):
        assert FragmentMetadata(ttl=float("inf")).ttl == float("inf")


class TestDependency:
    def test_table_match(self):
        dep = Dependency("products")
        assert dep.matches("products", "a", ())
        assert not dep.matches("reviews", "a", ())

    def test_key_narrowing(self):
        dep = Dependency("products", key="a")
        assert dep.matches("products", "a", ())
        assert not dep.matches("products", "b", ())

    def test_column_narrowing(self):
        dep = Dependency("products", column="price")
        assert dep.matches("products", "a", ("price", "title"))
        assert not dep.matches("products", "a", ("title",))

    def test_column_narrowing_insert_matches_all(self):
        """Inserts report no changed columns; treat as touching all."""
        dep = Dependency("products", column="price")
        assert dep.matches("products", "a", ())

    def test_where_filter_against_row(self):
        dep = Dependency("products", where_column="category", where_value="books")
        assert dep.matches("products", "a", (), row={"category": "books"})
        assert not dep.matches("products", "a", (), row={"category": "toys"})

    def test_where_filter_matches_old_image_too(self):
        """A row moving OUT of the watched set still invalidates."""
        dep = Dependency("products", where_column="category", where_value="books")
        assert dep.matches(
            "products",
            "a",
            ("category",),
            row={"category": "toys"},
            old_row={"category": "books"},
        )

    def test_where_filter_without_images_is_permissive(self):
        dep = Dependency("products", where_column="category", where_value="books")
        assert dep.matches("products", "a", ())
