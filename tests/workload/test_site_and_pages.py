"""Tests for page composition and the site builder."""

import json
import random

import pytest

from repro.http import Request, Status, URL
from repro.origin import OriginServer
from repro.workload import (
    CatalogConfig,
    PageBuilder,
    build_ecommerce_site,
    generate_catalog,
)


@pytest.fixture
def catalog():
    return generate_catalog(CatalogConfig(n_products=20), random.Random(0))


@pytest.fixture
def server(catalog):
    return OriginServer(build_ecommerce_site(catalog))


def get(server, path, now=0.0):
    return server.handle(Request.get(URL.parse(path)), now)


class TestPageBuilder:
    def test_home_page_shape(self):
        spec = PageBuilder().home()
        assert spec.html.path == "/"
        paths = [r.url.path for r in spec.resources]
        assert "/static/app.js" in paths
        assert "/api/blocks/cart" in paths
        assert "/api/recommendations" in paths

    def test_product_page_has_image_and_two_waves(self):
        spec = PageBuilder().product("p3")
        assert spec.html.path == "/product/p3"
        waves = spec.waves()
        assert len(waves) == 2
        wave1_paths = [r.url.path for r in waves[0]]
        assert "/static/img/p3.jpg" in wave1_paths

    def test_for_view_dispatch(self):
        builder = PageBuilder()
        assert builder.for_view("home", "").name == "home"
        assert builder.for_view("category", "shoes").name == "category:shoes"
        assert builder.for_view("product", "p1").name == "product:p1"
        with pytest.raises(ValueError):
            builder.for_view("mystery", "")


    def test_for_view_resolves_each_view_once(self):
        builder = PageBuilder()
        first = builder.for_view("product", "p1")
        assert builder.for_view("product", "p1") is first
        assert builder.for_view("product", "p2") is not first
        assert builder.for_view("category", "p1") is not first
        # Failures are not remembered as pages.
        for _ in range(2):
            with pytest.raises(ValueError):
                builder.for_view("mystery", "p1")

    def test_page_loading_never_mutates_a_shared_page_spec(self, catalog):
        """``for_view`` hands every view of a page the same ``PageSpec``,
        so a full run (page loads, prefetch, batched waves) must leave
        each one equal to a freshly built spec."""
        from repro.harness import Scenario, ScenarioSpec, SimulationRunner
        from repro.workload import (
            UserPopulationConfig,
            WorkloadConfig,
            WorkloadGenerator,
            generate_users,
        )

        users = generate_users(
            UserPopulationConfig(n_users=6), random.Random(1)
        )
        trace = WorkloadGenerator(
            catalog,
            users,
            WorkloadConfig(duration=200.0, session_rate=0.2),
        ).generate(random.Random(2))
        runner = SimulationRunner(
            ScenarioSpec(
                scenario=Scenario.SPEED_KIT,
                prefetch=True,
                batch_waves=True,
            ),
            catalog,
            users,
            trace,
        )
        runner.run()
        views = runner.pages._views
        assert len(views) > 3
        for (page_kind, target), page in views.items():
            assert page == PageBuilder().for_view(page_kind, target)


class TestSiteBuilder:
    def test_every_page_resource_is_servable(self, server):
        builder = PageBuilder()
        specs = [
            builder.home(),
            builder.category("shoes"),
            builder.product("p3"),
        ]
        for spec in specs:
            urls = [spec.html] + [r.url for r in spec.resources]
            for url in urls:
                response = server.handle(Request.get(url), 0.0)
                assert response.status == Status.OK, f"{url} failed"

    def test_category_page_lists_matching_products(self, server, catalog):
        response = get(server, "/category/shoes")
        body = json.loads(response.body)
        listed = {item["id"] for item in body["results"]}
        expected = {
            p.product_id for p in catalog.products if p.category == "shoes"
        }
        assert listed == expected

    def test_product_api(self, server, catalog):
        response = get(server, "/api/products/p5")
        body = json.loads(response.body)
        assert body["docs"]["products/p5"]["price"] == (
            catalog.product("p5").price
        )

    def test_product_image_is_static(self, server):
        response = get(server, "/static/img/p3.jpg")
        assert response.cache_control.immutable

    def test_checkout_is_user_personalized(self, server):
        response = server.handle(
            Request.get(
                URL.parse("/checkout"),
            ).with_header("Cookie", "session=u1"),
            0.0,
        )
        assert response.cache_control.no_store

    def test_price_update_invalidates_category_listing(self, server):
        first = get(server, "/category/shoes")
        body = json.loads(first.body)
        some_id = body["results"][0]["id"]
        server.update("products", some_id, {"price": 1.23}, at=5.0)
        second = get(server, "/category/shoes", now=6.0)
        assert second.version == first.version + 1
