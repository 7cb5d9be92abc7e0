"""Tests for baseline fetchers and the cookie-jar wrapper."""

import inspect

import pytest

from repro.baselines import CookieJarFetcher, NoCacheClient
from repro.browser import Fetcher
from repro.http import Headers, Request, Status, URL

from tests.browser.conftest import CLIENT_ORIGIN, run_fetch


def get(path, headers=None):
    return Request.get(URL.parse(path), headers=Headers(headers or {}))


class TestNoCacheClient:
    def test_every_fetch_pays_full_latency(self, env, transport):
        client = NoCacheClient("client", transport)
        run_fetch(env, client.fetch(get("/page/1")))
        start = env.now
        response = run_fetch(env, client.fetch(get("/page/1")))
        assert response.served_by == "origin"
        assert env.now - start == pytest.approx(2 * CLIENT_ORIGIN)


class TestCookieJarFetcher:
    def test_attaches_cookie_for_logged_in_user(self, env, transport):
        captured = []
        original = transport.origin_server.handle

        def spy(request, now):
            captured.append(request.headers.get("Cookie"))
            return original(request, now)

        transport.origin_server.handle = spy
        client = CookieJarFetcher(
            NoCacheClient("client", transport), user_id="u42"
        )
        run_fetch(env, client.fetch(get("/page/1")))
        assert captured == ["session=u42"]

    def test_anonymous_user_sends_nothing(self, env, transport):
        captured = []
        original = transport.origin_server.handle

        def spy(request, now):
            captured.append(request.headers.get("Cookie"))
            return original(request, now)

        transport.origin_server.handle = spy
        client = CookieJarFetcher(
            NoCacheClient("client", transport), user_id=None
        )
        run_fetch(env, client.fetch(get("/page/1")))
        assert captured == [None]

    def test_existing_cookie_not_overwritten(self, env, transport):
        captured = []
        original = transport.origin_server.handle

        def spy(request, now):
            captured.append(request.headers.get("Cookie"))
            return original(request, now)

        transport.origin_server.handle = spy
        client = CookieJarFetcher(
            NoCacheClient("client", transport), user_id="u42"
        )
        run_fetch(
            env, client.fetch(get("/page/1", {"Cookie": "session=other"}))
        )
        assert captured == ["session=other"]

    def test_original_request_not_mutated(self, env, transport):
        client = CookieJarFetcher(
            NoCacheClient("client", transport), user_id="u42"
        )
        request = get("/page/1")
        run_fetch(env, client.fetch(request))
        assert "Cookie" not in request.headers

    def test_wave_gets_the_cookie_before_it_reaches_the_inner_fetcher(
        self, env, transport
    ):
        seen = []

        class Recording(NoCacheClient):
            def fetch_many(self, requests):
                seen.extend(r.headers.get("Cookie") for r in requests)
                return super().fetch_many(requests)

        client = CookieJarFetcher(Recording("client", transport), "u42")
        responses = run_fetch(
            env, client.fetch_many([get("/page/1"), get("/page/2")])
        )
        assert seen == ["session=u42", "session=u42"]
        assert [r.status for r in responses] == [Status.OK, Status.OK]


class TestFetcherProtocol:
    def test_default_fetch_many_answers_in_request_order(self, env, transport):
        class Slow(Fetcher):
            """Answers after the delay its request names."""

            def __init__(self):
                self.transport = transport
                self.finished = []

            def fetch(self, request):
                yield env.timeout(float(request.url.params["wait"]))
                self.finished.append(request.url.params["wait"])
                return request.url.params["wait"]

        fetcher = Slow()
        waits = ["0.3", "0.1", "0.2"]
        answers = run_fetch(
            env, fetcher.fetch_many([get(f"/page/1?wait={w}") for w in waits])
        )
        assert fetcher.finished == ["0.1", "0.2", "0.3"]  # in parallel
        assert answers == waits  # ... reported in request order
        assert env.now == pytest.approx(0.3)

    def test_a_fetcher_must_say_how_it_fetches(self):
        with pytest.raises(NotImplementedError):
            Fetcher().fetch(get("/page/1"))

    def test_every_shipped_fetcher_is_one(self):
        from repro.browser import BrowserClient
        from repro.speedkit import ServiceWorkerProxy

        for cls in (
            BrowserClient,
            NoCacheClient,
            CookieJarFetcher,
            ServiceWorkerProxy,
        ):
            assert issubclass(cls, Fetcher)


class TestForwardingFrames:
    """A step that only hands the request on adds no generator frame;
    the boundaries the perf ledger times keep theirs."""

    def test_forwarders_are_plain_functions_or_gone(self):
        from repro.browser import BrowserClient, Transport
        from repro.speedkit import ServiceWorkerProxy

        forwarders = [
            (Transport, "_relay_to_origin"),
            (NoCacheClient, "fetch"),
            (CookieJarFetcher, "fetch"),
            (BrowserClient, "_transport_fetch"),
            (ServiceWorkerProxy, "_pass_through"),
            (ServiceWorkerProxy, "_fetch_user_block"),
            (ServiceWorkerProxy, "_fetch_routed"),
        ]
        for cls, name in forwarders:
            member = vars(cls).get(name)
            assert member is None or not inspect.isgeneratorfunction(
                member
            ), f"{cls.__name__}.{name}"

    def test_measured_boundaries_keep_their_own_frame(self):
        from repro.browser import Transport
        from repro.speedkit import ServiceWorkerProxy

        boundaries = [
            Transport.fetch_direct,
            Transport.fetch_via_cdn,
            Transport.fetch_many_via_cdn,
            ServiceWorkerProxy.fetch,
        ]
        for boundary in boundaries:
            assert inspect.isgeneratorfunction(boundary), boundary
        codes = {boundary.__code__ for boundary in boundaries}
        codes.add(Transport._origin_exchange.__code__)
        assert len(codes) == len(boundaries) + 1
