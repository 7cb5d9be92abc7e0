"""Transport under injected faults: retries, failover, stale-if-error."""

import random

import pytest

from repro.browser import Transport
from repro.cdn import Cdn
from repro.coherence.client import SketchClient
from repro.faults import CircuitBreaker, FaultProfile, RetryPolicy
from repro.http import Request, Status, URL
from repro.sim import Environment
from repro.simnet import NO_FAULTS, FaultSchedule, build_web_topology
from repro.sketch.cache_sketch import ServerCacheSketch

from tests.faults.conftest import CLIENT_EDGE, CLIENT_ORIGIN, run_fetch


def get(path):
    return Request.get(URL.parse(path))


def lossy(rate=1.0):
    return FaultProfile(link_loss_rate=rate).build(duration=3600.0, seed=0)


class TestLostMessages:
    def test_single_attempt_times_out_and_synthesizes_503(
        self, env, make_transport, metrics
    ):
        transport = make_transport(faults=lossy())
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.status == Status.SERVICE_UNAVAILABLE
        assert response.served_by == "network"
        # No retry policy: one attempt, one default timeout.
        assert env.now == pytest.approx(1.0)
        assert metrics.counter("transport.lost_requests").value == 1

    def test_synthesized_503_is_uncacheable(self, env, make_transport):
        transport = make_transport(faults=lossy())
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.headers.get("Cache-Control") == "no-store"

    def test_retry_policy_spends_attempts_then_gives_up(
        self, env, make_transport, metrics
    ):
        policy = RetryPolicy(
            max_attempts=2,
            base_backoff=0.05,
            backoff_factor=2.0,
            attempt_timeout=0.5,
            budget=10.0,
        )
        transport = make_transport(faults=lossy(), retry=policy)
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.status == Status.SERVICE_UNAVAILABLE
        # timeout + backoff + timeout.
        assert env.now == pytest.approx(0.5 + 0.05 + 0.5)
        assert metrics.counter("transport.retries").value == 1
        assert metrics.counter("transport.lost_requests").value == 2


class TestRetryAgainstOutage:
    def test_retry_rides_out_a_short_outage(
        self, env, make_transport, metrics
    ):
        policy = RetryPolicy(
            max_attempts=3,
            base_backoff=0.1,
            backoff_factor=2.0,
            attempt_timeout=1.0,
            budget=10.0,
        )
        transport = make_transport(
            faults=FaultSchedule.origin_outage(0.0, 0.2), retry=policy
        )
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        # First attempt meets the outage (one RTT), backs off 0.1s,
        # second attempt lands after recovery.
        assert response.status == Status.OK
        assert env.now == pytest.approx(2 * CLIENT_ORIGIN + 0.1 + 2 * CLIENT_ORIGIN)
        assert metrics.counter("transport.retries").value == 1

    def test_time_budget_stops_retrying_early(
        self, env, make_transport, metrics
    ):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff=0.05,
            backoff_factor=2.0,
            attempt_timeout=1.0,
            budget=0.15,
        )
        transport = make_transport(
            faults=FaultSchedule.origin_outage(0.0, 100.0), retry=policy
        )
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.status == Status.SERVICE_UNAVAILABLE
        assert response.served_by == "origin"
        assert metrics.counter("transport.budget_exhausted").value == 1
        assert metrics.counter("transport.retries").value == 0


class TestLatencySpikes:
    def test_spikes_slow_every_leg(self, env, make_transport):
        profile = FaultProfile(
            latency_spike_rate=1.0, latency_spike_factor=5.0
        )
        transport = make_transport(
            faults=profile.build(duration=3600.0, seed=0)
        )
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.status == Status.OK
        assert env.now == pytest.approx(2 * CLIENT_ORIGIN * 5.0)


class TestEdgeFailover:
    def edge_down(self, start=0.0, end=100.0):
        faults = FaultSchedule()
        faults.add_outage("edge", start, end)
        return faults

    def test_dark_pop_fails_over_to_origin(
        self, env, make_transport, cdn, metrics
    ):
        transport = make_transport(faults=self.edge_down())
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.status == Status.OK
        assert response.served_by == "origin"
        # One client->edge leg (wasted) plus a direct round trip.
        assert env.now == pytest.approx(CLIENT_EDGE + 2 * CLIENT_ORIGIN)
        assert metrics.counter("transport.edge_failures").value == 1
        assert len(cdn.pop("edge").store) == 0

    def test_dark_pop_fails_over_for_a_whole_wave(
        self, env, make_transport, cdn
    ):
        transport = make_transport(faults=self.edge_down())
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client", [get("/page/1"), get("/page/2")], cdn, "edge"
            ),
        )
        assert [r.status for r in responses] == [Status.OK, Status.OK]
        assert all(r.served_by == "origin" for r in responses)
        assert len(cdn.pop("edge").store) == 0

    def test_breaker_trips_to_pass_through(
        self, env, make_transport, cdn, metrics
    ):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=30.0, metrics=metrics
        )
        transport = make_transport(
            faults=self.edge_down(), breaker=breaker
        )
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert breaker.is_open("edge", env.now)
        start = env.now
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.status == Status.OK
        # Pass-through skips the edge leg entirely.
        assert env.now - start == pytest.approx(2 * CLIENT_ORIGIN)
        assert metrics.counter("breaker.pass_through").value == 1

    def test_breaker_wave_pass_through(self, env, make_transport, cdn, metrics):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=30.0, metrics=metrics
        )
        transport = make_transport(faults=self.edge_down(), breaker=breaker)
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client", [get("/page/1"), get("/page/2")], cdn, "edge"
            ),
        )
        assert all(r.status == Status.OK for r in responses)
        assert metrics.counter("breaker.pass_through").value == 1

    def test_breaker_probe_recloses_after_recovery(
        self, env, make_transport, cdn, metrics
    ):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=30.0, metrics=metrics
        )
        transport = make_transport(
            faults=self.edge_down(0.0, 100.0), breaker=breaker
        )
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert breaker.is_open("edge", env.now)
        env.run(until=150.0)
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        # The probe found the PoP healthy: breaker closes, edge fills.
        assert response.status == Status.OK
        assert not breaker.is_open("edge", env.now)
        assert len(cdn.pop("edge").store) == 1


class TestStaleIfError:
    def warm_then_kill_origin(self, env, make_transport, cdn, grace):
        faults = FaultSchedule.origin_outage(350.0, 10_000.0)
        transport = make_transport(faults=faults, stale_if_error=grace)
        first = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert first.status == Status.OK
        # Jump past the entry's TTL (pages: max-age=300) into the outage.
        env.run(until=400.0)
        return transport, first

    def test_edge_serves_bounded_stale_within_grace(
        self, env, make_transport, cdn, metrics
    ):
        transport, _ = self.warm_then_kill_origin(
            env, make_transport, cdn, grace=600.0
        )
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.status == Status.OK
        assert response.served_by == "edge"
        assert response.headers.get("X-Stale-If-Error") == "1"
        assert metrics.counter("transport.stale_if_error").value == 1

    def test_error_propagates_outside_grace(
        self, env, make_transport, cdn, metrics
    ):
        transport, _ = self.warm_then_kill_origin(
            env, make_transport, cdn, grace=60.0
        )
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        # The copy was verified ~400s ago: too stale for a 60s window.
        assert response.status == Status.SERVICE_UNAVAILABLE
        assert metrics.counter("transport.stale_if_error").value == 0

    @pytest.mark.parametrize("grace", [float("nan"), -5.0])
    def test_a_nan_or_negative_window_serves_nothing_stale(
        self, env, make_transport, cdn, metrics, grace
    ):
        """``Transport(stale_if_error=nan)`` reaches the cache node's
        guard, which fails closed."""
        transport, _ = self.warm_then_kill_origin(
            env, make_transport, cdn, grace=grace
        )
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.status == Status.SERVICE_UNAVAILABLE
        assert metrics.counter("transport.stale_if_error").value == 0

    def test_degraded_serving_is_never_304_converted(
        self, env, make_transport, cdn
    ):
        transport, first = self.warm_then_kill_origin(
            env, make_transport, cdn, grace=600.0
        )
        conditional = get("/page/1").with_header(
            "If-None-Match", first.headers.get("ETag")
        )
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", conditional, cdn, "edge"),
        )
        # A degraded answer must not pose as "your copy is current".
        assert response.status == Status.OK
        assert response.headers.get("X-Stale-If-Error") == "1"

    def test_degraded_serving_is_never_readmitted(
        self, env, make_transport, cdn
    ):
        transport, _ = self.warm_then_kill_origin(
            env, make_transport, cdn, grace=600.0
        )
        degraded = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        downstream = Cdn(["edge"]).pop("edge")
        returned = downstream.admit(get("/page/1"), degraded, env.now)
        assert returned.status == Status.OK
        assert downstream.store.peek(get("/page/1").url.cache_key()) is None


class TestNoFaultsOracle:
    """``faults`` is never ``None``: the default is the null oracle."""

    def replay(self, server, **kwargs):
        """Direct, CDN and wave fetches over jittered links; returns
        every instant a response arrived and the RNG's final state."""
        env = Environment()
        rng = random.Random(11)
        transport = Transport(
            env,
            build_web_topology(["client"], {"client": "cable"}, ["edge"]),
            server,
            rng,
            **kwargs,
        )
        cdn = Cdn(["edge"])
        arrivals = []
        for index in range(4):
            path = f"/page/{index % 2}"
            run_fetch(env, transport.fetch_direct("client", get(path)))
            arrivals.append(env.now)
            run_fetch(env, transport.fetch_via_cdn("client", get(path), cdn))
            arrivals.append(env.now)
            run_fetch(
                env,
                transport.fetch_many_via_cdn(
                    "client", [get("/page/3"), get(path)], cdn
                ),
            )
            arrivals.append(env.now)
        return transport, arrivals, rng.getstate()

    def test_explicit_no_faults_replays_like_the_default(self, server):
        default, arrivals, state = self.replay(server)
        assert default.faults is NO_FAULTS
        explicit, same_arrivals, same_state = self.replay(
            server, faults=NO_FAULTS
        )
        assert explicit.faults is NO_FAULTS
        assert same_arrivals == arrivals
        assert same_state == state
        # An empty hand-built schedule is the same oracle by behaviour.
        _, again, again_state = self.replay(server, faults=FaultSchedule())
        assert (again, again_state) == (arrivals, state)

    def test_the_sketch_client_holds_the_null_oracle_too(self, env, topology):
        client = SketchClient(
            env, ServerCacheSketch(), topology, "client", random.Random(0)
        )
        assert client.faults is NO_FAULTS
        process = env.process(client.fetch_once())
        env.run()
        assert process.value is not None and client.stats.failures == 0
