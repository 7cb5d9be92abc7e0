"""Tests for the case-insensitive header map: a value, built whole."""

import pytest

from repro.http import FrozenHeadersError, Headers


def test_lookup_is_case_insensitive():
    h = Headers({"Cache-Control": "max-age=60"})
    assert h["cache-control"] == "max-age=60"
    assert h["CACHE-CONTROL"] == "max-age=60"


def test_contains_is_case_insensitive():
    h = Headers({"ETag": "abc"})
    assert "etag" in h
    assert "Etag" in h
    assert "Missing" not in h


def test_contains_non_string_is_false():
    h = Headers({"ETag": "abc"})
    assert 42 not in h


def test_a_later_value_overwrites_regardless_of_case():
    """Was ``test_set_overwrites_regardless_of_case`` (by item
    assignment): the same rule, applied while the map is built and when
    one is derived."""
    built = Headers({"X-Foo": "1", "x-foo": "2"})
    derived = Headers({"X-Foo": "1"}).with_item("x-foo", "2")
    for h in (built, derived):
        assert len(h) == 1
        assert h["X-FOO"] == "2"


def test_first_spelling_is_preserved_for_display():
    built = Headers({"X-Custom-Name": "1", "x-custom-name": "2"})
    derived = Headers({"X-Custom-Name": "1"}).with_item("x-custom-name", "2")
    assert list(built) == list(derived) == ["X-Custom-Name"]


def test_get_with_default():
    h = Headers()
    assert h.get("missing") is None
    assert h.get("missing", "fallback") == "fallback"


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.__setitem__("A", "2"),
        lambda h: h.__delitem__("a"),
        lambda h: h.pop("a"),
        lambda h: h.pop("missing", "gone"),
        lambda h: h.update({"B": "2", "a": "3"}),
        lambda h: h.setdefault("B", "2"),
    ],
    ids=["setitem", "delitem", "pop", "pop-default", "update", "setdefault"],
)
def test_a_map_is_never_edited(edit):
    """Was ``test_pop_removes_and_returns``,
    ``test_delete_is_case_insensitive``, ``test_update_merges`` and
    ``test_setdefault_keeps_existing``: a map any number of messages
    and cache entries carry refuses every edit, by name."""
    h = Headers({"A": "1"})
    with pytest.raises(FrozenHeadersError, match="never edited"):
        edit(h)
    assert h == {"A": "1"} and len(h) == 1
    assert not hasattr(h, "copy")  # a value needs no copy


def test_values_are_coerced_to_str():
    assert Headers({"Content-Length": 123})["content-length"] == "123"
    assert Headers().with_item("Content-Length", 123)["content-length"] == "123"


def test_with_item_leaves_the_original_alone():
    """Was ``test_copy_is_independent``."""
    h = Headers({"A": "1", "B": "x"})
    derived = h.with_item("a", "2")
    assert h["A"] == "1" and derived["A"] == "2"
    assert list(derived.items()) == [("A", "2"), ("B", "x")]
    assert list(h.with_item("C", "3")) == ["A", "B", "C"]


def test_equality_ignores_case_and_accepts_dicts():
    assert Headers({"A": "1"}) == Headers({"a": "1"})
    assert Headers({"A": "1"}) == {"a": "1"}
    assert Headers({"A": "1"}) != Headers({"A": "2"})
