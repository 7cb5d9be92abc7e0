"""Async PoP-to-PoP replication: delivery, purge races, freshness."""

import pytest

from repro.cdn import Cdn, PopReplicator
from repro.http import Headers, Request, Response, Status, URL
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry

DELAY = 0.05


def ok_response(url="/p", max_age=60):
    return Response(
        status=Status.OK,
        headers=Headers(
            {"Cache-Control": f"public, max-age={max_age}", "ETag": '"v1"'}
        ),
        body="x",
        url=URL.parse(url),
        version=1,
        generated_at=0.0,
    )


def get(url="/p"):
    return Request.get(URL.parse(url))


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cdn():
    return Cdn(["pop-eu", "pop-us", "pop-ap"], metrics=MetricRegistry())


@pytest.fixture
def replicator(env, cdn):
    return PopReplicator(env, cdn, delay=DELAY)


def test_rejects_negative_delay(env, cdn):
    with pytest.raises(ValueError):
        PopReplicator(env, cdn, delay=-1.0)


def test_attaches_to_cdn(cdn, replicator):
    assert cdn.replicator is replicator


def test_admission_replicates_to_siblings(env, cdn, replicator):
    cdn.pop("pop-eu").admit(get(), ok_response(), now=env.now)
    assert replicator.in_flight == 2
    env.run()
    assert env.now == pytest.approx(DELAY)
    assert replicator.in_flight == 0
    for name in ("pop-us", "pop-ap"):
        assert cdn.pop(name).serve(get(), now=env.now) is not None
    assert cdn.metrics.counter("replication.applied").value == 2
    assert cdn.metrics.counter("edge.pop-us.replicated").value == 1


def test_replica_is_a_copy(env, cdn, replicator):
    response = ok_response()
    cdn.pop("pop-eu").admit(get(), response, now=env.now)
    env.run()
    served = cdn.pop("pop-us").serve(get(), now=env.now)
    assert served is not response  # never the same mutable object


def test_no_event_to_pops_already_holding_the_key(env, cdn, replicator):
    for name in ("pop-eu", "pop-us"):
        cdn.pop(name).admit(get(), ok_response(), now=env.now)
    # eu admits → us + ap; us admits → ap only (eu holds the key).
    assert cdn.metrics.counter("replication.sent").value == 3


def test_first_arrival_wins_duplicates_dropped(env, cdn, replicator):
    cdn.pop("pop-eu").admit(get(), ok_response(), now=env.now)
    cdn.pop("pop-us").admit(get(), ok_response(), now=env.now)
    env.run()
    # Both replicated to pop-ap; the second arrival found it present.
    assert cdn.metrics.counter("replication.dropped_present").value >= 1
    assert cdn.pop("pop-ap").serve(get(), now=env.now) is not None


def test_purge_supersedes_in_flight_replicas(env, cdn, replicator):
    key = get().url.cache_key

    def scenario():
        cdn.pop("pop-eu").admit(get(), ok_response(), now=env.now)
        assert replicator.in_flight_for([key]) == 2
        yield env.timeout(DELAY / 2)
        cdn.purge_many([key])  # mid-flight: replicas must not apply

    env.process(scenario())
    env.run()
    assert cdn.metrics.counter("replication.dropped_purged").value == 2
    assert cdn.metrics.counter("replication.applied").value == 0
    for name in cdn.pops:
        assert cdn.pop(name).serve(get(), now=env.now) is None


def test_replicas_sent_after_purge_apply(env, cdn, replicator):
    key = get().url.cache_key

    def scenario():
        cdn.purge_many([key])
        yield env.timeout(0.001)
        cdn.pop("pop-eu").admit(get(), ok_response(), now=env.now)

    env.process(scenario())
    env.run()
    # Admitted strictly after the purge: fair game.
    assert cdn.metrics.counter("replication.applied").value == 2


def test_expired_replicas_dropped_on_arrival(env, cdn, replicator):
    def scenario():
        # max-age shorter than the propagation delay: stale on arrival.
        cdn.pop("pop-eu").admit(
            get(), ok_response(max_age=0.01), now=env.now
        )
        yield env.timeout(0)

    env.process(scenario())
    env.run()
    assert cdn.metrics.counter("replication.dropped_stale").value == 2
    assert cdn.metrics.counter("replication.applied").value == 0


def test_in_flight_for_counts_only_named_keys(env, cdn, replicator):
    cdn.pop("pop-eu").admit(get("/a"), ok_response("/a"), now=env.now)
    key_a = get("/a").url.cache_key
    key_b = get("/b").url.cache_key
    assert replicator.in_flight_for([key_a]) == 2
    assert replicator.in_flight_for([key_b]) == 0
    env.run()
    assert replicator.in_flight_for([key_a]) == 0


def test_purge_many_empty_is_noop_with_zero_round_trips(cdn):
    """Regression: an empty purge must not count requests, touch any
    PoP store, or accrue storage cost."""
    assert cdn.purge_many([]) == 0
    assert cdn.metrics.counter("cdn.purge_requests").value == 0
    for pop in cdn.pops.values():
        assert pop.store.backend.pending_latency() == 0.0


def versioned(version, max_age=60.0):
    return Response(
        status=Status.OK,
        headers=Headers(
            {
                "Cache-Control": f"public, max-age={max_age}",
                "ETag": f'"v{version}"',
            }
        ),
        body="x",
        url=URL.parse("/p"),
        version=version,
        generated_at=0.0,
    )


def test_purge_bookkeeping_stays_bounded(env, cdn, replicator):
    """Regression: per-key purge records must be pruned once no
    in-flight replica can match them, not grow forever."""

    def scenario():
        for i in range(200):
            cdn.purge_many([f"key-{i}"])
            yield env.timeout(DELAY)

    env.process(scenario())
    env.run()
    # Only records younger than one propagation delay can still matter.
    assert len(replicator._purged_at) <= 3


def test_purge_records_survive_within_the_delay_window(env, cdn, replicator):
    key = get().url.cache_key

    def scenario():
        cdn.purge_many([key])
        yield env.timeout(DELAY / 4)
        # A replica admitted before the purge instant... (simulate by
        # checking supersession directly: sent at t=0, purged at t=0).
        assert replicator._superseded(key, 0.0)

    env.process(scenario())
    env.run()


def test_fresher_replica_replaces_expired_resident(env, cdn, replicator):
    """Regression: a fresh v2 replica must not be dropped just because
    the sibling still holds an expired v1 copy."""

    def scenario():
        cdn.pop("pop-eu").admit(get(), versioned(2), now=env.now)
        yield env.timeout(0.01)
        # The sibling independently fills v1 with a tiny TTL; it will
        # be expired by the time the v2 replica arrives.
        cdn.pop("pop-us").admit(get(), versioned(1, max_age=0.02), now=env.now)

    env.process(scenario())
    env.run()
    served = cdn.pop("pop-us").serve(get(), now=env.now)
    assert served is not None
    assert served.version == 2
    assert cdn.metrics.counter("replication.replaced_stale").value == 1


def test_not_newer_replica_never_replaces_expired_resident(
    env, cdn, replicator
):
    """An expired resident may only be replaced by a strictly newer
    replica — anything else could regress a client's observed version."""

    def scenario():
        cdn.pop("pop-eu").admit(get(), versioned(1), now=env.now)
        yield env.timeout(0.01)
        cdn.pop("pop-us").admit(get(), versioned(1, max_age=0.02), now=env.now)

    env.process(scenario())
    env.run()
    # The same-version replica was dropped; the expired v1 stays put
    # (to be revalidated), so nothing fresh is servable.
    assert cdn.pop("pop-us").serve(get(), now=env.now) is None
    assert cdn.metrics.counter("replication.replaced_stale").value == 0
    assert cdn.metrics.counter("replication.dropped_present").value >= 1
