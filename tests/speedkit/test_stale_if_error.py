"""Tests for bounded stale-if-error serving at the service worker."""

import random

import pytest

from repro.browser import Transport
from repro.http import Request, Status, URL
from repro.simnet import FaultSchedule

from tests.speedkit.conftest import run


def get(path):
    return Request.get(URL.parse(path))


@pytest.fixture
def faulty_transport(env, topology, backend):
    transport = Transport(env, topology, backend.server, random.Random(0))
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


def warm_flag_and_kill(env, worker, backend, faulty_transport):
    """Cache /product/1, flag it stale, then take the origin down."""
    run(env, worker.fetch(get("/product/1")))
    backend.server.update("products", "1", {"price": 99}, at=env.now)
    env.run(until=env.now + 1.0)
    run(env, worker.sketch_client.fetch_once())
    faulty_transport.faults.add_outage("origin", env.now, env.now + 7200)


class TestBoundedDegradedServing:
    def test_stale_if_error_preferred_over_offline(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        config.stale_if_error_window = 60.0
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.OK
        assert response.version == 1  # the verified-recently copy
        # Bounded serving wins over the unbounded offline ladder rung.
        assert response.headers.get("X-Stale-If-Error") == "1"
        assert response.headers.get("X-SpeedKit-Offline") is None
        assert (
            worker.metrics.counter("speedkit.stale_if_error_served").value
            == 1
        )

    def test_outside_window_falls_back_to_offline(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        config.stale_if_error_window = 60.0
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        # Let the copy's verification age blow past the grace window.
        env.run(until=env.now + 400.0)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.OK
        assert response.headers.get("X-Stale-If-Error") is None
        assert response.headers.get("X-SpeedKit-Offline") == "1"

    def test_bounded_serving_works_without_offline_mode(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        config.offline_mode = False
        config.stale_if_error_window = 600.0
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.OK
        assert response.headers.get("X-Stale-If-Error") == "1"

    def test_error_propagates_when_no_rung_applies(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        config.offline_mode = False
        config.stale_if_error_window = 60.0
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        env.run(until=env.now + 400.0)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.SERVICE_UNAVAILABLE

    def test_degraded_serving_is_not_counted_as_cache_hit(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        """Regression: the degradation ladder used to bump the SW
        cache's "hit" counter, making outages *raise* the hit ratio."""
        config.stale_if_error_window = 60.0
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        hits_before = worker.metrics.counter("sw.hit").value
        response = run(env, worker.fetch(get("/product/1")))
        assert response.headers.get("X-Stale-If-Error") == "1"
        assert worker.metrics.counter("sw.hit").value == hits_before
        assert worker.metrics.counter("speedkit.served_from_cache").value == 0

    def test_offline_serving_is_not_counted_as_cache_hit(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        hits_before = worker.metrics.counter("sw.hit").value
        response = run(env, worker.fetch(get("/product/1")))
        assert response.headers.get("X-SpeedKit-Offline") == "1"
        assert worker.metrics.counter("sw.hit").value == hits_before

    def test_no_window_keeps_historical_offline_behaviour(
        self, env, make_faulty_worker, faulty_transport, backend, config
    ):
        assert config.stale_if_error_window is None
        worker = make_faulty_worker()
        warm_flag_and_kill(env, worker, backend, faulty_transport)
        response = run(env, worker.fetch(get("/product/1")))
        assert response.status == Status.OK
        assert response.headers.get("X-SpeedKit-Offline") == "1"
