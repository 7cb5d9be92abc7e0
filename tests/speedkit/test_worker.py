"""Integration tests for the service worker proxy."""

import json

import pytest

from repro.http import Headers, Method, Request, Status, URL
from repro.origin.server import SEGMENT_PARAM
from repro.speedkit import ConsentManager

from tests.speedkit.conftest import run


def get(path, headers=None):
    return Request.get(URL.parse(path), headers=Headers(headers or {}))


class TestRouting:
    def test_without_consent_everything_passes_through(
        self, env, make_worker
    ):
        worker = make_worker(consent=ConsentManager.none_granted())
        response = run(env, worker.fetch(get("/product/1")))
        assert response.served_by == "origin"
        # Nothing was cached in the SW.
        assert len(worker.cache.store) == 0
        assert worker.metrics.counter("speedkit.pass_through").value == 1

    def test_unsafe_method_passes_through(self, env, make_worker, backend):
        worker = make_worker()
        request = Request(
            method=Method.POST,
            url=URL.parse("/api/documents/products/99"),
            body={"category": "shoes", "price": 1},
        )
        response = run(env, worker.fetch(request))
        assert response.status == Status.OK
        assert backend.server.site.store.get("products", "99") is not None

    def test_accelerated_request_counted(self, env, make_worker):
        worker = make_worker()
        run(env, worker.fetch(get("/static/app.js")))
        assert worker.metrics.counter("speedkit.accelerated").value == 1


    def test_counters_exist_from_their_first_count_not_before(
        self, env, make_worker
    ):
        worker = make_worker()

        def mine():
            return {
                name: value
                for name, value in worker.metrics.snapshot().items()
                if name.startswith(("speedkit.", "sw."))
            }

        assert mine() == {}
        run(env, worker.fetch(get("/static/app.js")))
        assert mine() == {
            "speedkit.accelerated": 1,
            "speedkit.fetches": 1,
            "sw.miss": 1,
            "sw.fill": 1,
        }
        run(env, worker.fetch(get("/static/app.js")))
        assert mine() == {
            "speedkit.accelerated": 2,
            "speedkit.fetches": 1,
            "speedkit.served_from_cache": 1,
            "sw.miss": 1,
            "sw.fill": 1,
            "sw.hit": 1,
        }

    def test_lists_edited_after_the_first_request_still_route(
        self, env, make_worker
    ):
        """The resolved route is keyed on the lists' contents, so an
        edit between two requests for one path takes effect."""
        worker = make_worker()
        counter = worker.metrics.counter

        first = run(env, worker.fetch(get("/product/1")))
        assert first.url.params[SEGMENT_PARAM] == "gold|de"
        assert counter("speedkit.accelerated").value == 1

        worker.config.segment_personalized.remove("/product/*")
        second = run(env, worker.fetch(get("/product/1")))
        assert SEGMENT_PARAM not in second.url.params
        assert counter("speedkit.accelerated").value == 2

        worker.config.rules.blacklist.append("/product/*")
        third = run(env, worker.fetch(get("/product/1")))
        assert third.served_by == "origin"
        assert counter("speedkit.pass_through").value == 1
        assert counter("speedkit.accelerated").value == 2


class TestGdprBehaviour:
    def test_cookie_never_reaches_shared_infrastructure(
        self, env, make_worker, backend
    ):
        seen_user_ids = []
        original = backend.server._user_identity

        def spy(request):
            identity = original(request)
            seen_user_ids.append(identity)
            return identity

        backend.server._user_identity = spy
        worker = make_worker()
        run(
            env,
            worker.fetch(get("/product/1", {"Cookie": "session=u1"})),
        )
        # The origin received the accelerated request anonymously.
        assert seen_user_ids == [None]
        assert worker.metrics.counter("speedkit.scrubbed").value == 1

    def test_user_block_carries_credentials_directly(
        self, env, make_worker, backend
    ):
        worker = make_worker(user_id="u7")
        backend.server.write("carts", "u7", {"items": [1, 2, 3]}, at=0.0)
        response = run(env, worker.fetch(get("/api/blocks/cart")))
        body = json.loads(response.body)
        assert body["user"] == "u7"
        assert body["cart"] == {"items": [1, 2, 3]}
        # Served by the origin directly, not via the CDN.
        assert response.served_by == "origin"
        assert len(backend.cdn.pop("edge").store) == 0

    def test_user_block_is_never_cached(self, env, make_worker):
        worker = make_worker(user_id="u7")
        run(env, worker.fetch(get("/api/blocks/cart")))
        assert len(worker.cache.store) == 0


class TestSegmentVariants:
    def test_segment_param_attached(self, env, make_worker, backend):
        worker = make_worker(attrs={"tier": "gold", "locale": "de"})
        response = run(env, worker.fetch(get("/product/1")))
        assert response.url.params[SEGMENT_PARAM] == "gold|de"
        body = json.loads(response.body)
        assert body["segment"] == "gold|de"

    def test_same_segment_shares_cdn_entry(self, env, make_worker, backend):
        gold_a = make_worker(user_id="a", attrs={"tier": "gold", "locale": "de"})
        gold_b = make_worker(user_id="b", attrs={"tier": "gold", "locale": "de"})
        run(env, gold_a.fetch(get("/product/1")))
        response = run(env, gold_b.fetch(get("/product/1")))
        assert response.served_by == "edge"

    def test_different_segments_get_different_variants(
        self, env, make_worker, backend
    ):
        gold = make_worker(user_id="a", attrs={"tier": "gold", "locale": "de"})
        standard = make_worker(
            user_id="b", attrs={"tier": "standard", "locale": "en"}
        )
        run(env, gold.fetch(get("/product/1")))
        response = run(env, standard.fetch(get("/product/1")))
        # The standard user's variant was not in the CDN yet.
        assert response.served_by == "origin"


class TestCachingAndCoherence:
    def test_second_fetch_served_from_sw_cache(self, env, make_worker):
        worker = make_worker()
        run(env, worker.fetch(get("/static/app.js")))
        start = env.now
        response = run(env, worker.fetch(get("/static/app.js")))
        assert response.served_by == "sw:client"
        assert env.now == start

    def test_write_triggers_revalidation_after_sketch_refresh(
        self, env, make_worker, backend
    ):
        worker = make_worker()
        run(env, worker.fetch(get("/product/1")))
        first = run(env, worker.fetch(get("/product/1")))
        assert first.served_by == "sw:client"
        assert first.version == 1
        # The product changes; pipeline adds it to the sketch + purges.
        backend.server.update("products", "1", {"price": 99}, at=env.now)
        env.run(until=env.now + 1.0)
        # Force a sketch refresh (simulating the next Δ tick).
        run(env, worker.sketch_client.fetch_once())
        response = run(env, worker.fetch(get("/product/1")))
        assert response.version == 2

    def test_stale_read_bounded_by_delta(
        self, env, make_worker, backend, checker
    ):
        worker = make_worker()
        run(env, worker.fetch(get("/product/1")))
        backend.server.update("products", "1", {"price": 99}, at=env.now)
        env.run(until=env.now + 1.0)
        # Sketch NOT refreshed: the SW may serve the stale copy...
        response = run(env, worker.fetch(get("/product/1")))
        checker.record_read(response, env.now)
        # ...but within the Δ bound, so no violation.
        checker.assert_delta_atomic()

    def test_full_session_is_delta_atomic(
        self, env, make_worker, backend, checker
    ):
        worker = make_worker(refresh_interval=10.0)
        worker.sketch_client.start_periodic_refresh()
        paths = ["/product/1", "/product/2", "/category/shoes"]
        for round_index in range(30):
            for path in paths:
                response = run(env, worker.fetch(get(path)))
                checker.record_read(response, env.now)
            if round_index % 3 == 0:
                backend.server.update(
                    "products",
                    str(round_index % 5),
                    {"price": round_index, "category": "shoes"},
                    at=env.now,
                )
            env.run(until=env.now + 7.0)
        assert checker.read_count == 90
        checker.assert_delta_atomic()

    def test_sketch_fetched_lazily_when_missing(self, env, make_worker):
        worker = make_worker()
        assert worker.sketch_client.current is None
        run(env, worker.fetch(get("/product/1")))
        assert worker.sketch_client.current is not None

    def test_on_navigate_prefetches_sketch(self, env, make_worker):
        worker = make_worker()
        run(env, worker.on_navigate())
        assert worker.sketch_client.stats.fetches == 1
        # A second navigation within Δ does not refetch.
        run(env, worker.on_navigate())
        assert worker.sketch_client.stats.fetches == 1

    def test_on_navigate_skips_without_consent(self, env, make_worker):
        worker = make_worker(consent=ConsentManager.none_granted())
        run(env, worker.on_navigate())
        assert worker.sketch_client.stats.fetches == 0

    def test_false_positive_only_costs_a_revalidation(
        self, env, make_worker, backend
    ):
        worker = make_worker()
        run(env, worker.fetch(get("/static/app.js")))
        # Manufacture a sketch that (falsely) flags the asset.
        key = str(
            URL.parse("/static/app.js")
        )
        backend.sketch.report_read(key, expires_at=10**9, now=env.now)
        backend.sketch.report_write(key, now=env.now)
        run(env, worker.sketch_client.fetch_once())
        response = run(env, worker.fetch(get("/static/app.js")))
        # Revalidated (304 path) — correct content, one extra round trip.
        assert response.status == Status.OK
        assert response.version == 1
        assert worker.metrics.counter("speedkit.revalidations").value == 1
