"""Tests for the baseline browser client."""

import pytest

from repro.browser import BrowserClient, TransportMode
from repro.http import Request, Status, URL

from tests.browser.conftest import CLIENT_EDGE, CLIENT_ORIGIN, run_fetch


def get(path):
    return Request.get(URL.parse(path))


@pytest.fixture
def direct_client(transport):
    return BrowserClient("client", transport, mode=TransportMode.DIRECT)


@pytest.fixture
def cdn_client(transport, cdn):
    return BrowserClient(
        "client", transport, mode=TransportMode.CDN, cdn=cdn
    )


class TestConstruction:
    def test_cdn_mode_requires_cdn(self, transport):
        with pytest.raises(ValueError):
            BrowserClient("client", transport, mode=TransportMode.CDN)


class TestDirectMode:
    def test_first_fetch_goes_to_origin(self, env, direct_client):
        response = run_fetch(env, direct_client.fetch(get("/page/1")))
        assert response.status == Status.OK
        assert response.served_by == "origin"
        assert env.now == pytest.approx(2 * CLIENT_ORIGIN)

    def test_second_fetch_hits_browser_cache(self, env, direct_client):
        run_fetch(env, direct_client.fetch(get("/page/1")))
        start = env.now
        response = run_fetch(env, direct_client.fetch(get("/page/1")))
        assert response.served_by == "browser:client"
        assert env.now == start  # zero network time

    def test_expired_entry_revalidates(self, env, direct_client, server):
        run_fetch(env, direct_client.fetch(get("/page/1")))
        env.run(until=400.0)  # past the 300 s page TTL
        response = run_fetch(env, direct_client.fetch(get("/page/1")))
        assert response.status == Status.OK
        assert response.version == 1
        # Once revalidated the copy is fresh again with zero latency.
        start = env.now
        again = run_fetch(env, direct_client.fetch(get("/page/1")))
        assert again.served_by == "browser:client"
        assert env.now == start

    def test_revalidation_fetches_new_version_on_change(
        self, env, direct_client, server
    ):
        run_fetch(env, direct_client.fetch(get("/page/1")))
        server.update("pages", "1", {"title": "new"}, at=env.now)
        env.run(until=400.0)
        response = run_fetch(env, direct_client.fetch(get("/page/1")))
        assert response.version == 2

    def test_hit_ratio_tracked(self, env, direct_client):
        run_fetch(env, direct_client.fetch(get("/page/1")))
        run_fetch(env, direct_client.fetch(get("/page/1")))
        assert direct_client.cache.counted("hit") == 1
        assert direct_client.cache.counted("miss") == 1


class TestCdnMode:
    def test_miss_fills_both_caches(self, env, cdn_client, cdn):
        run_fetch(env, cdn_client.fetch(get("/page/1")))
        assert len(cdn.pop("edge").store) == 1
        assert len(cdn_client.cache.store) == 1

    def test_browser_cache_wins_over_cdn(self, env, cdn_client):
        run_fetch(env, cdn_client.fetch(get("/page/1")))
        start = env.now
        response = run_fetch(env, cdn_client.fetch(get("/page/1")))
        assert response.served_by == "browser:client"
        assert env.now == start

    def test_cdn_serves_other_clients_content(
        self, env, transport, cdn, cdn_client
    ):
        run_fetch(env, cdn_client.fetch(get("/page/1")))
        from repro.browser import BrowserClient

        other = BrowserClient(
            "client", transport, mode=TransportMode.CDN, cdn=cdn
        )
        start = env.now
        response = run_fetch(env, other.fetch(get("/page/1")))
        assert response.served_by == "edge"
        assert env.now - start == pytest.approx(2 * CLIENT_EDGE)


class TestFetchMany:
    def test_cdn_wave_batches_misses(self, env, cdn_client, cdn):
        requests = [get("/page/1"), get("/page/2"), get("/static/app.js")]
        responses = run_fetch(env, cdn_client.fetch_many(requests))
        assert [r.status for r in responses] == [Status.OK] * 3
        assert len(cdn.pop("edge").store) == 3
        assert len(cdn_client.cache.store) == 3

    def test_browser_hits_answered_locally(self, env, cdn_client):
        run_fetch(env, cdn_client.fetch(get("/page/1")))
        start = env.now
        responses = run_fetch(
            env, cdn_client.fetch_many([get("/page/1"), get("/page/2")])
        )
        assert responses[0].served_by == "browser:client"
        assert responses[1].served_by == "origin"
        # Only the miss travels: one edge RT (fill runs inside it).
        assert env.now > start

    def test_warm_wave_is_one_edge_round_trip(
        self, env, transport, cdn, cdn_client
    ):
        requests = [get("/page/1"), get("/page/2"), get("/page/3")]
        run_fetch(env, cdn_client.fetch_many(requests))
        other = BrowserClient(
            "client", transport, mode=TransportMode.CDN, cdn=cdn
        )
        start = env.now
        responses = run_fetch(env, other.fetch_many(requests))
        assert [r.served_by for r in responses] == ["edge"] * 3
        assert env.now - start == pytest.approx(2 * CLIENT_EDGE)

    def test_direct_mode_falls_back_to_parallel_fetches(
        self, env, direct_client
    ):
        requests = [get("/page/1"), get("/page/2")]
        responses = run_fetch(env, direct_client.fetch_many(requests))
        assert [r.served_by for r in responses] == ["origin", "origin"]
        # Parallel, not serialized: one direct round trip total.
        assert env.now == pytest.approx(2 * CLIENT_ORIGIN)

    def test_empty_wave(self, env, cdn_client):
        assert run_fetch(env, cdn_client.fetch_many([])) == []
