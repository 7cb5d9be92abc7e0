"""Tests for the baseline fetcher, the ``Fetcher`` protocol and the
session cookie a runner-built client carries."""

import inspect
import random

import pytest

from repro.baselines import NoCacheClient
from repro.browser import Fetcher
from repro.harness import Scenario, ScenarioSpec
from repro.http import Headers, Method, Request, URL
from repro.obs.span import NULL_SPAN
from repro.txn.coordinator import KeyRead
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    generate_catalog,
    generate_users,
)
from repro.workload.trace import CartAdd, PageView, TxnRead, WorkloadTrace

from tests.browser.conftest import CLIENT_ORIGIN, run_fetch
from tests.harness.keeping import KeepingRunner


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


class CapturingRunner(KeepingRunner):
    """Notes every request that reaches the origin and every request
    that leaves a device through the CDN."""

    def _build(self):
        super()._build()
        self.at_origin = []
        self.via_cdn = []
        handle = self.server.handle

        def at_origin(request, now):
            self.at_origin.append(request)
            return handle(request, now)

        self.server.handle = at_origin
        one, many = self.transport.fetch_via_cdn, self.transport.fetch_many_via_cdn

        def fetch_via_cdn(client, request, cdn):
            self.via_cdn.append(request)
            return one(client, request, cdn)

        def fetch_many_via_cdn(client, requests, cdn):
            self.via_cdn.extend(requests)
            return many(client, requests, cdn)

        self.transport.fetch_via_cdn = fetch_via_cdn
        self.transport.fetch_many_via_cdn = fetch_many_via_cdn


CATALOG = generate_catalog(CatalogConfig(n_products=5), random.Random(0))
USERS = generate_users(
    UserPopulationConfig(n_users=12, consent_fraction=1.0), random.Random(1)
)
LOGGED_IN = next(user for user in USERS.users if user.logged_in)
ANONYMOUS = next(user for user in USERS.users if not user.logged_in)
PRODUCTS = [product.product_id for product in CATALOG.products]


def replay(scenario, user):
    """A page view, a cart add and a transaction of ``user`` replayed on
    a runner-built ``scenario`` stack."""
    uid = user.user_id
    trace = WorkloadTrace(
        [
            PageView(at=1.0, user_id=uid, page_kind="product", target=PRODUCTS[0]),
            CartAdd(at=5.0, user_id=uid, product_id=PRODUCTS[0]),
            TxnRead(at=9.0, user_id=uid, product_ids=tuple(PRODUCTS[1:3])),
        ],
        duration=20.0,
    )
    runner = CapturingRunner(ScenarioSpec(scenario), CATALOG, USERS, trace)
    runner.run()
    return runner, runner.client_stacks()[uid].fetcher


BASELINES = pytest.mark.parametrize(
    "scenario",
    [Scenario.NO_CACHE, Scenario.BROWSER_ONLY, Scenario.CLASSIC_CDN],
    ids=lambda scenario: scenario.value,
)


class TestSessionCookie:
    """A browser sends its session cookie on every same-site request:
    the runner gives a logged-in user's client one map holding it, and
    every request built for the client carries that map."""

    @BASELINES
    def test_a_logged_in_users_requests_carry_the_clients_one_map(self, scenario):
        runner, client = replay(scenario, LOGGED_IN)
        session = client.request_headers
        assert session["Cookie"] == f"session={LOGGED_IN.user_id}"
        paths = {(r.method, r.url.path) for r in runner.at_origin}
        assert (Method.GET, f"/product/{PRODUCTS[0]}") in paths  # page
        cart_add = (Method.POST, f"/api/documents/carts/{LOGGED_IN.user_id}")
        txn_reads = {(Method.GET, f"/api/products/{pid}") for pid in PRODUCTS[1:3]}
        assert cart_add in paths and txn_reads <= paths
        assert all(r.headers is session for r in runner.at_origin)

    @BASELINES
    def test_an_anonymous_users_requests_carry_no_cookie(self, scenario):
        runner, client = replay(scenario, ANONYMOUS)
        assert client.request_headers is Fetcher.request_headers
        assert len(runner.at_origin) > 3
        assert all("Cookie" not in r.headers for r in runner.at_origin)

    def test_a_txn_refetch_carries_no_cookie(self):
        """A snapshot refetch goes straight to the origin, outside the
        client: a cookie there would buy a personalised answer."""
        runner, _ = replay(Scenario.NO_CACHE, LOGGED_IN)
        coordinator = runner._txn_coordinator_for(LOGGED_IN)
        url = URL.parse(f"/api/products/{PRODUCTS[1]}")
        read = KeyRead(url=url, response=None, read_at=runner.env.now)
        runner.at_origin.clear()
        runner.env.process(coordinator._refetch_one(read, NULL_SPAN))
        runner.env.run()
        [request] = runner.at_origin
        assert request.url == url
        assert "Cookie" not in request.headers

    def test_a_speed_kit_users_requests_leave_the_device_without_it(self):
        """The worker receives the cookie-laden requests and scrubs
        them: nothing it sends through the CDN names the session. A
        cart add (an unsafe method) passes through untouched, as it
        would without Speed Kit."""
        from repro.speedkit import ServiceWorkerProxy

        runner, worker = replay(Scenario.SPEED_KIT, LOGGED_IN)
        assert isinstance(worker, ServiceWorkerProxy)
        session = worker.request_headers
        assert session["Cookie"] == f"session={LOGGED_IN.user_id}"
        assert len(runner.via_cdn) > 3
        assert all("Cookie" not in r.headers for r in runner.via_cdn)
        [cart_add] = [r for r in runner.at_origin if r.method is Method.POST]
        assert cart_add.headers is session


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

        for cls in (BrowserClient, NoCacheClient, ServiceWorkerProxy):
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
            (BrowserClient, "_transport_fetch"),
            # Untraced, these two only forward; the span-owning frame
            # is interposed when tracing is on.
            (BrowserClient, "fetch"),
            (Transport, "_origin_exchange"),
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
