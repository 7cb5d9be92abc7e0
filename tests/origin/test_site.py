"""Tests for the declarative site description."""

import pytest

from repro.http import URL
from repro.origin import (
    Eq,
    PersonalizationKind,
    Query,
    ResourceKind,
    ResourceSpec,
    Site,
)


def product_route():
    return ResourceSpec(
        name="product-page",
        pattern="/product/{id}",
        kind=ResourceKind.PAGE,
        doc_keys=lambda p: [f"products/{p['id']}"],
    )


class TestResourceSpec:
    def test_pattern_must_be_absolute(self):
        with pytest.raises(ValueError):
            ResourceSpec(name="x", pattern="nope", kind=ResourceKind.PAGE)

    def test_match_captures_params(self):
        spec = product_route()
        assert spec.match("/product/42") == {"id": "42"}

    def test_match_rejects_wrong_shape(self):
        spec = product_route()
        assert spec.match("/product") is None
        assert spec.match("/product/42/extra") is None
        assert spec.match("/category/42") is None

    def test_static_segments_must_equal(self):
        spec = ResourceSpec(
            name="s", pattern="/static/{name}", kind=ResourceKind.STATIC
        )
        assert spec.match("/static/app.js") == {"name": "app.js"}
        assert spec.match("/media/app.js") is None

    def test_multiple_params(self):
        spec = ResourceSpec(
            name="x",
            pattern="/c/{category}/p/{id}",
            kind=ResourceKind.PAGE,
        )
        assert spec.match("/c/shoes/p/7") == {"category": "shoes", "id": "7"}

    def test_resolve_doc_keys(self):
        spec = product_route()
        assert spec.resolve_doc_keys({"id": "42"}) == ["products/42"]

    def test_doc_keys_default_empty(self):
        spec = ResourceSpec(name="x", pattern="/x", kind=ResourceKind.PAGE)
        assert spec.resolve_doc_keys({}) == []

    def test_query_resource_requires_query(self):
        with pytest.raises(ValueError):
            ResourceSpec(name="q", pattern="/q", kind=ResourceKind.QUERY)

    def test_resolve_query(self):
        spec = ResourceSpec(
            name="category",
            pattern="/category/{name}",
            kind=ResourceKind.QUERY,
            query=lambda p: Query("products", Eq("category", p["name"])),
        )
        query = spec.resolve_query({"name": "shoes"})
        assert query.matches("products", {"category": "shoes"})

    def test_default_personalization_is_none(self):
        assert product_route().personalization is PersonalizationKind.NONE


class TestSite:
    def test_first_match_wins(self):
        site = Site()
        site.add_route(
            ResourceSpec(
                name="special",
                pattern="/product/featured",
                kind=ResourceKind.PAGE,
            )
        )
        site.add_route(product_route())
        spec, params = site.match(URL.of("/product/featured"))
        assert spec.name == "special"
        spec, params = site.match(URL.of("/product/42"))
        assert spec.name == "product-page"
        assert params == {"id": "42"}

    def test_no_match_returns_none(self):
        site = Site()
        assert site.match(URL.of("/nothing")) is None


class TestMatchMemo:
    """``Site.match`` resolves each path once — against the route list
    as it is *now*, however that list was edited."""

    def test_repeat_matches_resolve_the_path_once(self, monkeypatch):
        site = Site()
        route = site.add_route(product_route())
        calls = []
        original = ResourceSpec.match

        def counting(self, path):
            calls.append(path)
            return original(self, path)

        monkeypatch.setattr(ResourceSpec, "match", counting)
        for _ in range(3):
            assert site.match(URL.of("/product/42")) == (route, {"id": "42"})
            assert site.match(URL.of("/nothing")) is None
        assert calls == ["/product/42", "/nothing"]

    def test_query_string_does_not_split_the_memo(self):
        site = Site()
        route = site.add_route(product_route())
        assert site.match(URL.of("/product/1", {"sk_segment": "a"})) == (
            route,
            {"id": "1"},
        )
        assert len(site._matches) == 1
        site.match(URL.of("/product/1", {"sk_segment": "b"}))
        assert len(site._matches) == 1

    def test_add_route_resets_remembered_misses(self):
        site = Site()
        assert site.match(URL.of("/product/42")) is None
        route = site.add_route(product_route())
        assert site.match(URL.of("/product/42")) == (route, {"id": "42"})

    def test_direct_edits_of_the_public_route_list_are_seen(self):
        site = Site()
        general = site.add_route(product_route())
        assert site.match(URL.of("/product/featured"))[0] is general
        special = ResourceSpec(
            name="special",
            pattern="/product/featured",
            kind=ResourceKind.PAGE,
        )
        site.routes.insert(0, special)
        assert site.match(URL.of("/product/featured"))[0] is special
        site.routes.remove(special)
        assert site.match(URL.of("/product/featured"))[0] is general

    def test_callers_get_their_own_params(self):
        site = Site()
        site.add_route(product_route())
        _, params = site.match(URL.of("/product/42"))
        params["id"] = "mutated"
        assert site.match(URL.of("/product/42"))[1] == {"id": "42"}
