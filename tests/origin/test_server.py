"""Tests for the origin server façade."""

import json

import pytest

from repro.http import Headers, Method, Request, Response, Status, URL
from repro.origin import (
    Eq,
    OriginServer,
    PersonalizationKind,
    Query,
    ResourceKind,
    ResourceSpec,
    Site,
    StaticTtlPolicy,
)
from repro.origin.server import SEGMENT_PARAM


@pytest.fixture
def site():
    site = Site()
    site.add_route(
        ResourceSpec(
            name="asset",
            pattern="/static/{name}",
            kind=ResourceKind.STATIC,
            doc_keys=lambda p: [f"assets/{p['name']}"],
            size_bytes=50_000,
        )
    )
    site.add_route(
        ResourceSpec(
            name="product-page",
            pattern="/product/{id}",
            kind=ResourceKind.PAGE,
            personalization=PersonalizationKind.SEGMENT,
            doc_keys=lambda p: [f"products/{p['id']}"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="category",
            pattern="/category/{name}",
            kind=ResourceKind.QUERY,
            query=lambda p: Query("products", Eq("category", p["name"])),
        )
    )
    site.add_route(
        ResourceSpec(
            name="cart",
            pattern="/api/blocks/cart",
            kind=ResourceKind.FRAGMENT,
            personalization=PersonalizationKind.USER,
        )
    )
    site.store.put("assets", "app.js", {"kind": "js"})
    site.store.put("products", "1", {"category": "shoes", "price": 10})
    site.store.put("products", "2", {"category": "hats", "price": 5})
    return site


@pytest.fixture
def server(site):
    return OriginServer(site)


def get(server, path, now=0.0, headers=None):
    request = Request.get(URL.parse(path), headers=Headers(headers or {}))
    return server.handle(request, now)


class TestBasicServing:
    def test_ok_response_with_headers(self, server):
        resp = get(server, "/product/1")
        assert resp.status == Status.OK
        assert resp.etag is not None
        assert "Cache-Control" in resp.headers
        assert resp.version == 1
        body = json.loads(resp.body)
        assert body["docs"]["products/1"]["price"] == 10

    def test_missing_document_is_404(self, server):
        assert get(server, "/product/999").status == Status.NOT_FOUND

    def test_unknown_route_is_404(self, server):
        assert get(server, "/nope").status == Status.NOT_FOUND

    def test_static_asset_is_immutable(self, site):
        site.store.put("assets", "app.js", {"kind": "js"})
        server = OriginServer(site)
        resp = get(server, "/static/app.js")
        assert resp.status == Status.OK
        assert resp.cache_control.immutable
        assert resp.headers["Content-Length"] == "50000"

    def test_request_counter(self, server):
        get(server, "/product/1")
        get(server, "/product/1")
        assert server.requests_served == 2


class TestVersioning:
    def test_write_bumps_served_version(self, server):
        first = get(server, "/product/1", now=0.0)
        server.write("products", "1", {"category": "shoes", "price": 12}, at=5.0)
        second = get(server, "/product/1", now=6.0)
        assert first.version == 1
        assert second.version == 2

    def test_unrelated_write_does_not_bump(self, server):
        get(server, "/product/1", now=0.0)
        server.write("products", "2", {"category": "hats", "price": 6}, at=5.0)
        assert get(server, "/product/1", now=6.0).version == 1

    def test_query_resource_bumps_when_member_changes(self, server):
        first = get(server, "/category/shoes", now=0.0)
        server.update("products", "1", {"price": 11}, at=5.0)
        second = get(server, "/category/shoes", now=6.0)
        assert second.version == first.version + 1

    def test_query_resource_bumps_when_document_enters_result(self, server):
        get(server, "/category/shoes", now=0.0)
        # p2 was a hat; making it a shoe changes the shoes listing.
        server.write("products", "2", {"category": "shoes", "price": 5}, at=5.0)
        assert get(server, "/category/shoes", now=6.0).version == 2

    def test_query_resource_bumps_when_document_leaves_result(self, server):
        get(server, "/category/shoes", now=0.0)
        server.write("products", "1", {"category": "hats", "price": 10}, at=5.0)
        assert get(server, "/category/shoes", now=6.0).version == 2

    def test_query_resource_ignores_non_matching_change(self, server):
        get(server, "/category/shoes", now=0.0)
        server.update("products", "2", {"price": 99}, at=5.0)  # still hats
        assert get(server, "/category/shoes", now=6.0).version == 1

    def test_segment_variants_share_version_history(self, server):
        plain = get(server, "/product/1", now=0.0)
        variant = get(server, f"/product/1?{SEGMENT_PARAM}=s3", now=1.0)
        assert plain.version == variant.version
        server.update("products", "1", {"price": 11}, at=5.0)
        assert get(server, f"/product/1?{SEGMENT_PARAM}=s3", now=6.0).version == 2


class TestConditionalRequests:
    def test_matching_etag_yields_304(self, server):
        first = get(server, "/product/1", now=0.0)
        resp = get(
            server,
            "/product/1",
            now=10.0,
            headers={"If-None-Match": first.etag},
        )
        assert resp.status == Status.NOT_MODIFIED
        assert resp.version == first.version

    def test_stale_etag_yields_full_response(self, server):
        first = get(server, "/product/1", now=0.0)
        server.update("products", "1", {"price": 11}, at=5.0)
        resp = get(
            server,
            "/product/1",
            now=10.0,
            headers={"If-None-Match": first.etag},
        )
        assert resp.status == Status.OK
        assert resp.version == 2


class TestPersonalization:
    def test_anonymous_fragment_is_not_user_personalized(self, server):
        resp = get(server, "/api/blocks/cart")
        assert resp.status == Status.OK
        assert "user" not in json.loads(resp.body)

    def test_cookie_identifies_user(self, server):
        server.write("carts", "u1", {"items": [1, 2]}, at=0.0)
        resp = get(
            server,
            "/api/blocks/cart",
            now=1.0,
            headers={"Cookie": "session=u1; theme=dark"},
        )
        body = json.loads(resp.body)
        assert body["user"] == "u1"
        assert body["cart"] == {"items": [1, 2]}

    def test_user_personalized_is_uncacheable(self, server):
        resp = get(
            server, "/api/blocks/cart", headers={"X-User-Id": "u1"}
        )
        assert resp.cache_control.no_store
        assert resp.cache_control.private

    def test_segment_variant_body_differs(self, server):
        plain = get(server, "/product/1")
        variant = get(server, f"/product/1?{SEGMENT_PARAM}=s3")
        assert json.loads(variant.body)["segment"] == "s3"
        assert "segment" not in json.loads(plain.body)

    def test_per_user_version_histories_are_separate(self, server):
        get(server, "/api/blocks/cart", headers={"X-User-Id": "u1"})
        get(server, "/api/blocks/cart", headers={"X-User-Id": "u2"})
        server.write("carts", "u1", {"items": [1]}, at=5.0)
        r1 = get(
            server, "/api/blocks/cart", now=6.0, headers={"X-User-Id": "u1"}
        )
        r2 = get(
            server, "/api/blocks/cart", now=6.0, headers={"X-User-Id": "u2"}
        )
        assert r1.version == 2
        assert r2.version == 1


class TestWriteApi:
    def test_post_document_applies_write(self, server):
        request = Request(
            method=Method.POST,
            url=URL.parse("/api/documents/products/3"),
            body={"category": "shoes", "price": 20},
        )
        resp = server.handle(request, now=1.0)
        assert resp.status == Status.OK
        assert server.site.store.get("products", "3").data["price"] == 20

    def test_malformed_write_is_400(self, server):
        request = Request(
            method=Method.POST, url=URL.parse("/api/oops"), body={"a": 1}
        )
        assert server.handle(request, now=0.0).status == Status.BAD_REQUEST

    def test_post_without_body_is_400(self, server):
        request = Request(
            method=Method.POST, url=URL.parse("/api/documents/products/3")
        )
        assert server.handle(request, now=0.0).status == Status.BAD_REQUEST

    def test_delete_document(self, server):
        request = Request(
            method=Method.DELETE,
            url=URL.parse("/api/documents/products/1"),
        )
        response = server.handle(request, now=2.0)
        assert response.status == Status.OK
        assert server.site.store.get("products", "1") is None

    def test_delete_bumps_dependent_versions(self, server):
        get(server, "/category/shoes", now=0.0)
        request = Request(
            method=Method.DELETE,
            url=URL.parse("/api/documents/products/1"),
        )
        server.handle(request, now=5.0)
        # The shoes listing lost a member -> new version.
        assert get(server, "/category/shoes", now=6.0).version == 2


class TestTtlPolicy:
    def test_overrides_apply(self, site):
        policy = StaticTtlPolicy(overrides={ResourceKind.PAGE: 123.0})
        server = OriginServer(site, ttl_policy=policy)
        resp = get(server, "/product/1")
        assert resp.cache_control.max_age == 123.0

    def test_zero_ttl_means_no_store(self, site):
        policy = StaticTtlPolicy(overrides={ResourceKind.PAGE: 0.0})
        server = OriginServer(site, ttl_policy=policy)
        assert get(server, "/product/1").cache_control.no_store

    def test_ttl_hint_beats_kind_default(self, site):
        site.add_route(
            ResourceSpec(
                name="hinted",
                pattern="/hinted",
                kind=ResourceKind.PAGE,
                ttl_hint=7.0,
            )
        )
        server = OriginServer(site)
        assert get(server, "/hinted").cache_control.max_age == 7.0

    def test_swr_is_attached_when_configured(self, site):
        policy = StaticTtlPolicy(stale_while_revalidate=30.0)
        server = OriginServer(site, ttl_policy=policy)
        resp = get(server, "/product/1")
        assert resp.cache_control.stale_while_revalidate == 30.0


class TestOneVersionPerChange:
    def test_a_key_reached_twice_is_bumped_once(self, site):
        # Rendered from products/1 *and* listing the shoes: one write to
        # products/1 reaches it as a dependent and as a query match.
        site.add_route(
            ResourceSpec(
                name="featured",
                pattern="/featured",
                kind=ResourceKind.PAGE,
                doc_keys=lambda p: ["products/1"],
                query=lambda p: Query("products", Eq("category", "shoes")),
            )
        )
        server = OriginServer(site)
        get(server, "/featured", now=0.0)
        server.update("products", "1", {"price": 11}, at=1.0)
        key = server.version_key_for(URL.parse("/featured"))
        assert server.versions.history(key) == [(0.0, 1), (1.0, 2)]
        assert get(server, "/featured", now=2.0).version == 2

    def test_observers_get_each_affected_set_once(self, server):
        seen = []
        server.change_observers.append(lambda keys, at: seen.append((keys, at)))
        get(server, "/product/1")
        get(server, "/category/shoes")
        server.update("products", "1", {"price": 11}, at=5.0)
        server.update("products", "2", {"price": 6}, at=6.0)  # still hats
        affected = {
            server.version_key_for(URL.parse(path))
            for path in ("/product/1", "/category/shoes")
        }
        assert seen == [(frozenset(affected), 5.0), (frozenset(), 6.0)]
