"""Tests for the structured URL type."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http import URL


def test_path_must_be_absolute():
    with pytest.raises(ValueError):
        URL(path="relative")


def test_query_order_is_normalized():
    a = URL.of("/p", {"b": 2, "a": 1})
    b = URL.of("/p", {"a": 1, "b": 2})
    assert a == b
    assert a.cache_key == b.cache_key
    assert hash(a) == hash(b)


def test_str_rendering():
    url = URL.of("/product/42", {"color": "red"})
    assert str(url) == "shop.example/product/42?color=red"
    assert str(URL.of("/plain")) == "shop.example/plain"


def test_parse_round_trip():
    url = URL.parse("/search?q=shoes&page=2")
    assert url.path == "/search"
    assert url.params == {"q": "shoes", "page": "2"}


def test_parse_without_query():
    url = URL.parse("/about")
    assert url.path == "/about"
    assert url.params == {}


def test_parse_empty_value():
    assert URL.parse("/p?flag=").params == {"flag": ""}


def test_with_param_adds_and_replaces():
    url = URL.of("/p", {"a": "1"})
    assert url.with_param("b", 2).params == {"a": "1", "b": "2"}
    assert url.with_param("a", 9).params == {"a": "9"}
    # Original is unchanged (frozen semantics).
    assert url.params == {"a": "1"}


def test_without_param():
    url = URL.of("/p", {"a": "1", "b": "2"})
    assert url.without_param("a").params == {"b": "2"}
    assert url.without_param("zzz").params == {"a": "1", "b": "2"}


def test_different_origins_are_different_keys():
    a = URL.of("/p", origin="a.example")
    b = URL.of("/p", origin="b.example")
    assert a != b
    assert a.cache_key != b.cache_key


@given(
    path=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=12,
    )
)
def test_parse_str_round_trip(path):
    url = URL.of("/" + path, {"k": "v"})
    reparsed = URL.parse(str(url).replace("shop.example", "", 1))
    assert reparsed == url


def test_canonical_text_is_built_once_and_is_not_part_of_identity():
    url = URL.of("/p", {"b": "2", "a": "1"})
    assert str(url) == url.cache_key == "shop.example/p?a=1&b=2"
    assert str(url) is str(url) is url.cache_key
    # The remembered text is not a dataclass field: equality, hashing
    # and repr see only path, query and origin.
    twin = URL.of("/p", {"a": "1", "b": "2"})
    assert url == twin and hash(url) == hash(twin)
    assert "cache_key" not in repr(url)
    assert [f.name for f in dataclasses.fields(URL)] == [
        "path",
        "query",
        "origin",
    ]
    # Derived URLs get their own text.
    assert str(url.without_param("a")) == "shop.example/p?b=2"
    assert str(url.with_param("c", 3)) == "shop.example/p?a=1&b=2&c=3"
