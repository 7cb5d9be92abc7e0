"""A batched wave's single fetches start as they are classified.

``BrowserClient.fetch_many`` looks each request of a wave up in the
browser cache; a request that needs a fetch of its own (an unsafe
method, a conditional revalidation) becomes a *single*, joined by one
``gather``. Each single starts before the next request is looked up,
because its first step drains the browser store's cost pool: on a
remote storage engine, the lookups made so far are what that single
waits for. The reference below starts each single as a process inside
the classification loop, the rule the gather replaced; on twin stacks
the gather's wave ends at the same instant with the same answers, and a
mutant that classifies the whole wave first and starts the singles
after it does not.
"""

import random

from repro.browser.client import BrowserClient, TransportMode
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http import URL, Method, Request
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    generate_catalog,
    generate_users,
)
from repro.workload.trace import PageView, WorkloadTrace

WAVE = (
    "/api/recommendations",
    "/static/app.js",
    "/product/p1",
    "/api/recommendations?x=1",
    "/static/style.css",
)


def reference_fetch_many(client, requests, start_late=False):
    """The rule the gather replaced: each single is a process started
    inside the classification loop (or, with ``start_late``, the
    mutant's order: all of them after it)."""
    env = client.transport.env
    responses = [None] * len(requests)
    batched, singles = [], {}
    for index, request in enumerate(requests):
        if client.mode is TransportMode.CDN and request.method.is_safe:
            cached = client.cache.serve(request, env.now)
            if cached is not None:
                responses[index] = cached
                continue
            if client.cache.revalidation_base(request, env.now) is None:
                batched.append(index)
                continue
        fetch = client.fetch(request)
        singles[index] = fetch if start_late else env.process(fetch)
    if start_late:
        singles = {index: env.process(fetch) for index, fetch in singles.items()}
    yield from client.transport.charge(client.cache.store)
    if batched:
        fetched = yield from client.transport.fetch_many_via_cdn(
            client.node, [requests[index] for index in batched], client.cdn
        )
        for index, response in zip(batched, fetched):
            responses[index] = client.cache.admit(requests[index], response, env.now)
        yield from client.transport.charge(client.cache.store)
    for index, process in singles.items():
        responses[index] = yield process
    return responses


def _wave_end(fetch_many):
    """How long the wave takes, its answers, and how many singles it
    started, on a classic-CDN stack over a remote engine whose browser
    cache holds every resource, the dynamic ones stale (so they
    revalidate as singles)."""
    catalog = generate_catalog(CatalogConfig(n_products=5), random.Random(0))
    users = generate_users(
        UserPopulationConfig(n_users=4, consent_fraction=1.0, logged_in_fraction=0.0),
        random.Random(1),
    )
    user = users.users[0]
    trace = WorkloadTrace([PageView(at=0.0, user_id=user.user_id, page_kind="home")])
    spec = ScenarioSpec(
        Scenario.CLASSIC_CDN, backend=BackendSpec(kind="remote"), batch_waves=True
    )
    runner = SimulationRunner(spec, catalog, users, trace)
    runner._build()
    client = runner._stack_for(user).fetcher
    env = runner.env
    singles = []
    single = client.fetch

    def counted(request):
        singles.append(request.url)
        return single(request)

    def wave(fetch):
        requests = [
            Request(Method.GET, URL.parse(path), client.request_headers)
            for path in WAVE
        ]
        started = env.now
        process = env.process(fetch(client, requests))
        env.run()
        return env.now - started, [
            (r.status, r.served_by, r.generated_at) for r in process.value
        ]

    wave(BrowserClient.fetch_many)
    env.run(until=env.now + 4000.0)
    client.fetch = counted
    return wave(fetch_many) + (len(singles),)


def test_singles_start_as_they_are_classified():
    wave = _wave_end(BrowserClient.fetch_many)
    assert wave == _wave_end(reference_fetch_many)
    assert wave[2] == 3  # the three dynamic resources revalidated


def test_the_gate_trips_on_singles_started_after_the_lookups(monkeypatch):
    def late(client, requests):
        return reference_fetch_many(client, requests, start_late=True)

    monkeypatch.setattr(BrowserClient, "fetch_many", late)
    assert _wave_end(BrowserClient.fetch_many) != _wave_end(reference_fetch_many)
