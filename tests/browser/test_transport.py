"""Tests for the transport layer (timing + cache interaction)."""

import pytest

from repro.http import Request, Status, URL

from tests.browser.conftest import (
    CLIENT_EDGE,
    CLIENT_ORIGIN,
    EDGE_ORIGIN,
    run_fetch,
)


def get(path):
    return Request.get(URL.parse(path))


class TestDirect:
    def test_round_trip_time(self, env, transport):
        response = run_fetch(
            env, transport.fetch_direct("client", get("/page/1"))
        )
        assert response.status == Status.OK
        assert env.now == pytest.approx(2 * CLIENT_ORIGIN)

    def test_origin_sees_arrival_time(self, env, transport, server):
        run_fetch(env, transport.fetch_direct("client", get("/page/1")))
        # The page was rendered when the request arrived (one one-way).
        key = server.version_key_for(URL.parse("/page/1"))
        assert server.versions.version_at(key, CLIENT_ORIGIN) == 1


class TestViaCdn:
    def test_miss_traverses_origin(self, env, transport, cdn):
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.status == Status.OK
        expected = 2 * CLIENT_EDGE + 2 * EDGE_ORIGIN
        assert env.now == pytest.approx(expected)

    def test_hit_skips_origin(self, env, transport, cdn):
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        start = env.now
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert response.served_by == "edge"
        assert env.now - start == pytest.approx(2 * CLIENT_EDGE)

    def test_hit_returns_same_version(self, env, transport, cdn, server):
        first = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        server.update("pages", "1", {"title": "new"}, at=env.now)
        # Without a purge the CDN keeps serving the old version (that is
        # the staleness problem the Cache Sketch exists to fix).
        second = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        assert second.served_by == "edge"
        assert second.version == first.version

    def test_expired_entry_revalidates_with_304(self, env, transport, cdn, server):
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        # StaticTtlPolicy gives pages max-age=300; jump past it.
        env.run(until=400.0)
        start = env.now
        response = run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        # Revalidation costs a full edge->origin round trip.
        assert env.now - start == pytest.approx(
            2 * CLIENT_EDGE + 2 * EDGE_ORIGIN
        )
        assert response.status == Status.OK
        assert response.version == 1
        revalidated = transport.origin_server  # origin answered with 304
        assert cdn.pop("edge").metrics.counter("edge.edge.revalidated").value == 1

    def test_nearest_edge_is_used_when_unspecified(self, env, transport, cdn):
        response = run_fetch(
            env, transport.fetch_via_cdn("client", get("/page/1"), cdn)
        )
        assert response.status == Status.OK
        assert len(cdn.pop("edge").store) == 1

    def test_content_length_drives_transfer_time(
        self, env, topology, transport, cdn
    ):
        from repro.simnet import ConstantDelay, Link

        # Rebuild the client-edge link with finite bandwidth.
        topology.connect(
            "client", "edge", Link(ConstantDelay(CLIENT_EDGE), bandwidth=100_000)
        )
        run_fetch(
            env,
            transport.fetch_via_cdn("client", get("/page/1"), cdn, "edge"),
        )
        # 20 kB at 100 kB/s adds 0.2 s on the client-edge leg.
        expected = 2 * CLIENT_EDGE + 2 * EDGE_ORIGIN + 0.2
        assert env.now == pytest.approx(expected)


class TestOneContentLengthRule:
    """The cache's size accounting and the transport's billing read
    the one parsed ``Response.content_length``; they used to parse the
    header separately and disagreed on a bad one."""

    BODY = "12345"

    @pytest.mark.parametrize(
        "header, parsed",
        [
            (None, None),
            ("12", 12),
            (" 12 ", 12),
            ("-5", 0),
            ("abc", None),
            ("1e3", None),
            ("nan", None),
        ],
    )
    def test_cache_and_transport_read_the_same_length(
        self, env, topology, server, cdn, header, parsed
    ):
        import random

        from repro.browser import Transport
        from repro.http import Headers, Response
        from repro.sim.metrics import MetricRegistry
        from repro.simnet import ConstantDelay, Link

        headers = {"Cache-Control": "public, max-age=60"}
        if header is not None:
            headers["Content-Length"] = header
        request = get("/planted")
        response = Response(
            status=Status.OK,
            headers=Headers(headers),
            body=self.BODY,
            url=request.url,
            version=1,
        )
        assert response.content_length == parsed
        # The cache: the declared length, else the body's size.
        edge = cdn.pop("edge")
        entry = edge.store.put(request.url.cache_key(), response, now=0.0)
        assert entry.size_bytes == (
            parsed if parsed is not None else len(self.BODY)
        )
        # The transport: the declared length, else headers only.
        topology.connect(
            "client", "edge", Link(ConstantDelay(CLIENT_EDGE), bandwidth=100)
        )
        metrics = MetricRegistry()
        transport = Transport(
            env, topology, server, random.Random(0), metrics=metrics
        )
        served = run_fetch(
            env, transport.fetch_via_cdn("client", request, cdn, "edge")
        )
        assert served.served_by == "edge"
        billed = parsed or 0
        assert metrics.counter("bytes.edge_egress").value == billed
        assert env.now == pytest.approx(2 * CLIENT_EDGE + billed / 100)


class TestFetchManyViaCdn:
    def wave(self, *paths):
        return [get(path) for path in paths]

    def test_empty_wave_is_free(self, env, transport, cdn):
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn("client", [], cdn, "edge"),
        )
        assert responses == []
        assert env.now == 0.0

    def test_warm_wave_costs_one_edge_round_trip(self, env, transport, cdn):
        paths = ("/page/1", "/page/2", "/static/app.js")
        for path in paths:
            run_fetch(
                env, transport.fetch_via_cdn("client", get(path), cdn, "edge")
            )
        start = env.now
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client", self.wave(*paths), cdn, "edge"
            ),
        )
        assert [r.served_by for r in responses] == ["edge"] * 3
        assert env.now - start == pytest.approx(2 * CLIENT_EDGE)

    def test_misses_fill_in_parallel(self, env, transport, cdn):
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client",
                self.wave("/page/1", "/page/2", "/page/3"),
                cdn,
                "edge",
            ),
        )
        assert all(r.status == Status.OK for r in responses)
        # All three fills run concurrently: one edge RT + one origin RT.
        assert env.now == pytest.approx(2 * CLIENT_EDGE + 2 * EDGE_ORIGIN)

    def test_responses_in_request_order(self, env, transport, cdn):
        # Warm one of the three so hits and fills interleave.
        run_fetch(
            env, transport.fetch_via_cdn("client", get("/page/2"), cdn, "edge")
        )
        responses = run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client",
                self.wave("/page/1", "/page/2", "/page/3"),
                cdn,
                "edge",
            ),
        )
        assert [r.url.path for r in responses] == [
            "/page/1",
            "/page/2",
            "/page/3",
        ]

    def test_batched_overlap_hides_edge_store_latency(
        self, env, topology, server
    ):
        import random

        from repro.browser import Transport
        from repro.cdn import Cdn
        from repro.storage import BackendSpec

        spec = BackendSpec(kind="batched", overlap=True, seed=3)
        cdn = Cdn(["edge"], backend_spec=spec)
        transport = Transport(env, topology, server, random.Random(0))
        paths = ("/page/1", "/page/2", "/page/3")
        for path in paths:
            run_fetch(
                env, transport.fetch_via_cdn("client", get(path), cdn, "edge")
            )
        env.run()
        cdn.pop("edge").store.drain_latency()
        start = env.now
        run_fetch(
            env,
            transport.fetch_many_via_cdn(
                "client", self.wave(*paths), cdn, "edge"
            ),
        )
        # The single batched lookup round trip hides entirely under the
        # client-edge return leg.
        engine = cdn.pop("edge").store.backend
        assert engine.overlap_hidden > 0.0
        assert env.now - start == pytest.approx(2 * CLIENT_EDGE)
