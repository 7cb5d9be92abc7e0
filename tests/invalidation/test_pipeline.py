"""Integration tests for the invalidation pipeline."""

import pytest

from repro.cdn import Cdn
from repro.http import Headers, Request, URL
from repro.invalidation import InvalidationPipeline, VariantIndex
from repro.origin import (
    Eq,
    OriginServer,
    PersonalizationKind,
    Query,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.origin.server import SEGMENT_PARAM
from repro.sim import Environment
from repro.sketch import ServerCacheSketch
from repro.ttl import AdaptiveTtlPolicy


def build_site():
    site = Site()
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
    site.store.put("products", "1", {"category": "shoes", "price": 10})
    site.store.put("products", "2", {"category": "hats", "price": 7})
    return site


@pytest.fixture
def stack():
    env = Environment()
    site = build_site()
    server = OriginServer(site)
    cdn = Cdn(["pop-1", "pop-2"])
    sketch = ServerCacheSketch(capacity=1000)
    pipeline = InvalidationPipeline(
        env,
        server,
        cdn=cdn,
        sketch=sketch,
        detection_latency=0.02,
        purge_latency=0.10,
    )
    return env, server, cdn, sketch, pipeline


def serve_and_cache(server, cdn, path, now, pop="pop-1"):
    """Simulate a CDN-mediated fetch: origin render + edge admission."""
    request = Request.get(URL.parse(path))
    response = server.handle(request, now)
    cdn.pop(pop).admit(request, response, now)
    return request, response


class TestVariantIndex:
    def test_version_key_is_always_included(self):
        index = VariantIndex()
        assert index.variants_of("base") == {"base"}

    def test_registered_variants_accumulate(self):
        index = VariantIndex()
        index.register("base", "base?sk_segment=a")
        index.register("base", "base?sk_segment=b")
        assert index.variants_of("base") == {
            "base",
            "base?sk_segment=a",
            "base?sk_segment=b",
        }


class TestPipeline:
    def test_write_purges_cdn_after_latency(self, stack):
        env, server, cdn, sketch, pipeline = stack
        request, _ = serve_and_cache(server, cdn, "/product/1", now=0.0)
        env.run(until=1.0)
        server.update("products", "1", {"price": 11}, at=env.now)
        # Before the purge latency elapses the CDN still has the entry.
        env.run(until=1.05)
        assert cdn.pop("pop-1").serve(request, env.now) is not None
        env.run(until=1.2)
        assert cdn.pop("pop-1").serve(request, env.now) is None

    def test_write_lands_in_sketch_after_detection(self, stack):
        env, server, cdn, sketch, pipeline = stack
        request, _ = serve_and_cache(server, cdn, "/product/1", now=0.0)
        key = request.url.cache_key
        env.run(until=1.0)
        server.update("products", "1", {"price": 11}, at=env.now)
        env.run(until=1.01)
        assert not sketch.contains(key, env.now)
        env.run(until=1.05)
        assert sketch.contains(key, env.now)

    def test_segment_variants_are_all_purged(self, stack):
        env, server, cdn, sketch, pipeline = stack
        base_req, _ = serve_and_cache(server, cdn, "/product/1", now=0.0)
        seg_req, _ = serve_and_cache(
            server, cdn, f"/product/1?{SEGMENT_PARAM}=s2", now=0.0
        )
        server.update("products", "1", {"price": 11}, at=1.0)
        env.run(until=2.0)
        assert cdn.pop("pop-1").serve(base_req, env.now) is None
        assert cdn.pop("pop-1").serve(seg_req, env.now) is None

    def test_query_resource_invalidated_by_entering_document(self, stack):
        env, server, cdn, sketch, pipeline = stack
        request, _ = serve_and_cache(server, cdn, "/category/shoes", now=0.0)
        # p2 (a hat) becomes a shoe: the shoes listing changed.
        server.write("products", "2", {"category": "shoes", "price": 7}, at=1.0)
        env.run(until=2.0)
        assert cdn.pop("pop-1").serve(request, env.now) is None
        assert sketch.contains(request.url.cache_key, env.now)

    def test_unrelated_write_is_a_no_op(self, stack):
        env, server, cdn, sketch, pipeline = stack
        request, _ = serve_and_cache(server, cdn, "/product/1", now=0.0)
        server.write("products", "99", {"category": "socks"}, at=1.0)
        env.run(until=2.0)
        assert cdn.pop("pop-1").serve(request, env.now) is not None
        assert (
            pipeline.metrics.get_counter("invalidation.no_op_changes").value
            == 1
        )

    def test_latency_metrics_recorded(self, stack):
        env, server, cdn, sketch, pipeline = stack
        serve_and_cache(server, cdn, "/product/1", now=0.0)
        env.run(until=1.0)
        server.update("products", "1", {"price": 11}, at=env.now)
        env.run(until=2.0)
        sketch_lat = pipeline.metrics.histogram("invalidation.sketch_latency")
        purge_lat = pipeline.metrics.histogram("invalidation.purge_latency")
        assert sketch_lat.mean() == pytest.approx(0.02)
        assert purge_lat.mean() == pytest.approx(0.10)

    def test_write_without_cached_copy_not_in_sketch(self, stack):
        env, server, cdn, sketch, pipeline = stack
        # Origin renders but with no-store policy nothing was cacheable?
        # Here: page IS cacheable but never served, so no read reported.
        server.update("products", "1", {"price": 11}, at=1.0)
        env.run(until=2.0)
        key = URL.parse("/product/1").cache_key
        assert not sketch.contains(key, env.now)

    def test_purges_fan_out_to_all_pops(self, stack):
        env, server, cdn, sketch, pipeline = stack
        req1, _ = serve_and_cache(server, cdn, "/product/1", 0.0, pop="pop-1")
        req2, _ = serve_and_cache(server, cdn, "/product/1", 0.0, pop="pop-2")
        server.update("products", "1", {"price": 11}, at=1.0)
        env.run(until=2.0)
        assert cdn.pop("pop-1").serve(req1, env.now) is None
        assert cdn.pop("pop-2").serve(req2, env.now) is None

    def test_adaptive_policy_learns_from_pipeline(self):
        env = Environment()
        site = build_site()
        policy = AdaptiveTtlPolicy()
        server = OriginServer(site, ttl_policy=policy)
        pipeline = InvalidationPipeline(env, server)
        request = Request.get(URL.parse("/product/1"))
        server.handle(request, 0.0)
        server.update("products", "1", {"price": 11}, at=10.0)
        server.update("products", "1", {"price": 12}, at=20.0)
        env.run(until=30.0)
        key = server.version_key_for(request.url)
        stats = policy.estimator.stats_for(key)
        assert stats is not None
        assert stats.writes == 2

    def test_latency_ordering_validated(self):
        env = Environment()
        server = OriginServer(build_site())
        with pytest.raises(ValueError):
            InvalidationPipeline(
                env, server, detection_latency=0.5, purge_latency=0.1
            )
