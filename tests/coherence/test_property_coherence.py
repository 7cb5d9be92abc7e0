"""Property-based verification of Δ-atomicity on random schedules.

Hypothesis drives a miniature but complete Speed Kit deployment
(origin + sketch + pipeline + CDN + two service workers) through
arbitrary interleavings of reads, writes, time gaps, and sketch
refreshes — and the checker must find zero Δ-atomicity violations in
every single schedule. This is the strongest correctness statement the
test suite makes about the protocol.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser import Transport
from repro.coherence import DeltaAtomicityChecker, SketchClient
from repro.http import Request, Status, URL
from repro.origin import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.sim import Environment
from repro.simnet.topology import two_tier
from repro.speedkit import (
    ConsentManager,
    PiiVault,
    SegmentResolver,
    SegmentScheme,
    ServiceWorkerProxy,
    SpeedKitBackend,
    SpeedKitConfig,
)

DELTA = 20.0
PURGE_LATENCY = 0.08
PRODUCTS = ("0", "1", "2")

operations = st.lists(
    st.tuples(
        st.sampled_from(["read_a", "read_b", "write", "refresh_a", "gap"]),
        st.sampled_from(PRODUCTS),
        st.floats(min_value=0.1, max_value=30.0),
    ),
    min_size=1,
    max_size=40,
)


def build_stack():
    env = Environment()
    site = Site()
    site.add_route(
        ResourceSpec(
            name="product",
            pattern="/product/{id}",
            kind=ResourceKind.PAGE,
            personalization=PersonalizationKind.SEGMENT,
            doc_keys=lambda p: [f"products/{p['id']}"],
            size_bytes=5000,
            ttl_hint=60.0,
        )
    )
    for product_id in PRODUCTS:
        site.store.put("products", product_id, {"price": 10})
    backend = SpeedKitBackend(
        env,
        site,
        pop_names=["edge"],
        detection_latency=0.02,
        purge_latency=PURGE_LATENCY,
    )
    topology = two_tier()
    transport = Transport(env, topology, backend.server, random.Random(0))
    config = SpeedKitConfig(
        sketch_refresh_interval=DELTA,
        segment_personalized=["/product/*"],
        refresh_on_navigation=False,
    )

    def worker(name, seed):
        vault = PiiVault(
            user_id=name, attributes={"tier": "gold", "locale": "de"}
        )
        consent = ConsentManager.all_granted()
        return ServiceWorkerProxy(
            node="client",
            transport=transport,
            cdn=backend.cdn,
            config=config,
            vault=vault,
            consent=consent,
            segments=SegmentResolver(
                SegmentScheme.ecommerce_default(), vault, consent
            ),
            sketch_client=SketchClient(
                env,
                backend.sketch,
                topology,
                "client",
                random.Random(seed),
                refresh_interval=DELTA,
            ),
        )

    checker = DeltaAtomicityChecker(
        backend.server, delta=DELTA + PURGE_LATENCY + 1.0
    )
    return env, backend, worker("alice", 1), worker("bob", 2), checker


def drive(env, generator):
    process = env.process(generator)
    while not process.triggered:
        env.step()
    if not process.ok:
        raise process.value
    return process.value


class TestRandomSchedules:
    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_delta_atomicity_never_violated(self, ops):
        env, backend, alice, bob, checker = build_stack()
        for op, product_id, gap in ops:
            env.run(until=env.now + gap)
            if op == "write":
                backend.server.update(
                    "products",
                    product_id,
                    {"price": round(env.now, 3)},
                    at=env.now,
                )
            elif op == "refresh_a":
                drive(env, alice.sketch_client.fetch_once())
            elif op in ("read_a", "read_b"):
                worker = alice if op == "read_a" else bob
                request = Request.get(URL.parse(f"/product/{product_id}"))
                response = drive(env, worker.fetch(request))
                assert response.status == Status.OK
                checker.record_read(response, env.now)
        checker.assert_delta_atomic()

    @given(
        ops=operations,
        ttl=st.sampled_from([2.0, 15.0, 60.0, 600.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_holds_for_any_ttl(self, ops, ttl):
        env, backend, alice, bob, checker = build_stack()
        (product,) = [
            spec for spec in backend.server.site.routes if spec.name == "product"
        ]
        product.ttl_hint = ttl
        for op, product_id, gap in ops:
            env.run(until=env.now + gap)
            if op == "write":
                backend.server.update(
                    "products",
                    product_id,
                    {"price": round(env.now, 3)},
                    at=env.now,
                )
            elif op in ("read_a", "read_b"):
                worker = alice if op == "read_a" else bob
                request = Request.get(URL.parse(f"/product/{product_id}"))
                response = drive(env, worker.fetch(request))
                checker.record_read(response, env.now)
        checker.assert_delta_atomic()
