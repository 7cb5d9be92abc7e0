"""Tests for offline resilience and stale-while-revalidate serving."""

import random

import pytest

from repro.browser import Transport
from repro.http import Request, Status, URL
from repro.simnet import FaultSchedule
from repro.simnet.topology import two_tier
from repro.speedkit import SpeedKitConfig

from tests.speedkit.conftest import run


def get(path):
    return Request.get(URL.parse(path))


@pytest.fixture
def faulty_transport(env, topology, backend):
    transport = Transport(
        env, topology, backend.server, random.Random(0)
    )
    transport.faults = FaultSchedule()
    return transport


@pytest.fixture
def make_faulty_worker(make_worker, faulty_transport):
    def factory(**kwargs):
        worker = make_worker(**kwargs)
        worker.transport = faulty_transport
        worker.fallback.transport = faulty_transport
        return worker

    return factory


class TestOfflineMode:
    def test_cached_copy_served_through_outage(
        self, env, make_faulty_worker, faulty_transport
    ):
        worker = make_faulty_worker()
        response = run(env, worker.fetch(get("/static/app.js")))
        assert response.status == Status.OK
        # Origin goes dark; the copy's TTL is irrelevant (immutable).
        faulty_transport.faults.add_outage("origin", env.now, env.now + 3600)
        response = run(env, worker.fetch(get("/static/app.js")))
        assert response.status == Status.OK
        assert response.served_by == "sw:client"

    def test_flagged_entry_still_served_when_origin_down(
        self, env, make_faulty_worker, faulty_transport, backend
    ):
        worker = make_faulty_worker()
        run(env, worker.fetch(get("/product/1")))
        # Flag the product as stale and refresh the client sketch.
        backend.server.update("products", "1", {"price": 99}, at=env.now)
        env.run(until=env.now + 1.0)
        run(env, worker.sketch_client.fetch_once())
        # Now the origin dies: revalidation fails -> serve stale copy.
        faulty_transport.faults.add_outage("origin", env.now, env.now + 3600)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.OK
        assert response.version == 1  # the stale-but-usable copy
        assert worker.metrics.counter("speedkit.offline_served").value >= 1

    def test_without_offline_mode_error_propagates(
        self, env, make_faulty_worker, faulty_transport, config
    ):
        config.offline_mode = False
        worker = make_faulty_worker()
        run(env, worker.fetch(get("/product/1")))
        faulty_transport.faults.add_outage("origin", env.now, env.now + 3600)
        # Expire the SW copy so a revalidation is forced.
        env.run(until=env.now + 400.0)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.SERVICE_UNAVAILABLE

    def test_uncached_resource_fails_during_outage(
        self, env, make_faulty_worker, faulty_transport
    ):
        worker = make_faulty_worker()
        faulty_transport.faults.add_outage("origin", 0.0, 3600.0)
        response = run(env, worker.fetch(get("/product/2")))
        assert response.status == Status.SERVICE_UNAVAILABLE


class TestSketchServiceOutage:
    def test_fetch_once_fails_gracefully(self, env, backend, topology):
        import random as random_module

        from repro.coherence import SketchClient

        faults = FaultSchedule.origin_outage(0.0, 3600.0)
        client = SketchClient(
            env,
            backend.sketch,
            topology,
            "client",
            random_module.Random(0),
            faults=faults,
        )
        process = env.process(client.fetch_once())
        while not process.triggered:
            env.step()
        assert process.value is None
        assert client.current is None
        assert client.stats.failures == 1
        assert client.stats.fetches == 0

    def test_degraded_serving_marked_offline(
        self, env, make_faulty_worker, faulty_transport
    ):
        worker = make_faulty_worker()
        worker.sketch_client.faults = faulty_transport.faults
        run(env, worker.fetch(get("/static/app.js")))
        # Now everything (incl. the sketch service) goes down; the
        # worker's sketch ages past Δ.
        faulty_transport.faults.add_outage("origin", env.now, env.now + 7200)
        env.run(until=env.now + 120.0)  # sketch now stale (> Δ = 60)
        response = run(env, worker.fetch(get("/static/app.js")))
        assert response.status == Status.OK
        assert "X-SpeedKit-Offline" in response.headers
        assert worker.metrics.counter("speedkit.offline_served").value >= 1

    def test_degraded_serving_disabled_without_offline_mode(
        self, env, make_faulty_worker, faulty_transport, config, backend
    ):
        config.offline_mode = False
        worker = make_faulty_worker()
        worker.sketch_client.faults = faulty_transport.faults
        run(env, worker.fetch(get("/static/app.js")))
        faulty_transport.faults.add_outage("origin", env.now, env.now + 7200)
        env.run(until=env.now + 120.0)  # sketch now stale (> Δ = 60)
        # A live edge could still answer the revalidation; empty it so
        # strict mode has to reach the (dead) origin.
        backend.cdn.purge_many(
            [key for pop in backend.cdn.pops.values() for key in pop.store.keys()]
        )
        response = run(env, worker.fetch(get("/static/app.js")))
        # Strict mode revalidates; the origin is down -> failure.
        assert response.status == Status.SERVICE_UNAVAILABLE


class TestStaleWhileRevalidate:
    def test_flagged_entry_served_instantly_then_refreshed(
        self, env, make_worker, backend, config
    ):
        config.stale_while_revalidate = True
        worker = make_worker()
        run(env, worker.fetch(get("/product/1")))
        backend.server.update("products", "1", {"price": 99}, at=env.now)
        env.run(until=env.now + 1.0)
        run(env, worker.sketch_client.fetch_once())

        start = env.now
        response = run(env, worker.fetch(get("/product/1")))
        # Served instantly from cache (stale), not revalidated inline.
        assert env.now == start
        assert response.version == 1
        assert worker.metrics.counter("speedkit.swr_served").value == 1
        # The background refresh lands shortly after.
        env.run(until=env.now + 5.0)
        refreshed = worker.cache.serve_even_stale(
            URL.parse("/product/1").with_param("sk_segment", "gold|de").cache_key(),
            env.now,
        )
        assert refreshed.version == 2

    def test_swr_disabled_by_default(self, env, make_worker, backend):
        worker = make_worker()
        run(env, worker.fetch(get("/product/1")))
        backend.server.update("products", "1", {"price": 99}, at=env.now)
        env.run(until=env.now + 1.0)
        run(env, worker.sketch_client.fetch_once())
        response = run(env, worker.fetch(get("/product/1")))
        # Inline revalidation: new version immediately.
        assert response.version == 2
