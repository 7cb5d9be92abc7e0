"""Tests for cache prewarming."""

import pytest

from repro.http import Request, URL
from repro.speedkit import prewarm

from tests.speedkit.conftest import run


class TestPrewarm:
    def test_urls_land_in_every_pop(self, backend):
        urls = [URL.parse("/product/1"), URL.parse("/static/app.js")]
        report = prewarm(backend, urls, at=0.0)
        assert report.warmed_count == 2
        assert report.failed == []
        assert report.bytes_pushed > 0
        for url in urls:
            assert backend.cdn.pop("edge").serve(
                Request.get(url), now=1.0
            ) is not None

    def test_segment_variants_prewarmed(self, backend):
        report = prewarm(
            backend,
            [URL.parse("/product/1")],
            at=0.0,
            segments=["gold|de", "standard|en"],
        )
        assert report.warmed_count == 3  # base + two variants
        variant = URL.parse("/product/1").with_param("sk_segment", "gold|de")
        assert backend.cdn.pop("edge").serve(
            Request.get(variant), now=1.0
        ) is not None

    def test_missing_resource_reported_failed(self, backend):
        report = prewarm(backend, [URL.parse("/product/999")], at=0.0)
        assert report.warmed_count == 0
        assert report.failed == ["shop.example/product/999"]

    def test_uncacheable_resource_reported_failed(self, backend):
        # The checkout page is user-personalized -> anonymous render is
        # cacheable? It renders anonymously (no user docs) with PAGE
        # defaults, so it IS cacheable; use the cart fragment instead
        # (fragment TTL 0 -> no-store).
        report = prewarm(backend, [URL.parse("/api/blocks/cart")], at=0.0)
        assert report.warmed_count == 0
        assert report.failed == ["shop.example/api/blocks/cart"]

    def test_prewarmed_copies_are_sketch_tracked(self, backend, env):
        """Coherence: a write to a prewarmed resource lands in the
        sketch because the warmer's reads were reported normally."""
        prewarm(backend, [URL.parse("/product/1")], at=0.0)
        backend.server.update("products", "1", {"price": 99}, at=1.0)
        env.run(until=2.0)
        assert backend.sketch.contains(URL.parse("/product/1").cache_key, now=env.now)

    def test_first_visitor_hits_warm_edge(self, backend, env, make_worker):
        prewarm(
            backend,
            [URL.parse("/product/1")],
            at=0.0,
            segments=["gold|de"],
        )
        worker = make_worker()  # gold|de user
        response = run(env, worker.fetch(Request.get(URL.parse("/product/1"))))
        assert response.served_by == "edge"
