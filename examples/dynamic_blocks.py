#!/usr/bin/env python
"""Dynamic blocks: one page, two delivery paths, assembled on-device.

The polyglot trick for pages that are *mostly* shared: the skeleton is
cached per segment in shared infrastructure, while the per-user pieces
(the cart badge here) travel the direct first-party connection — and
the service worker stitches them together before the page ever sees the
response. The shared caches never see the personal content.

Run:  python examples/dynamic_blocks.py
"""

import random

from repro.browser import Transport
from repro.coherence import SketchClient
from repro.http import Request, URL
from repro.origin import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.sim import Environment
from repro.simnet.topology import two_tier
from repro.speedkit import (
    BlockSpec,
    ConsentManager,
    PiiVault,
    SegmentResolver,
    SegmentScheme,
    ServiceWorkerProxy,
    SpeedKitBackend,
    SpeedKitConfig,
)


def build_site() -> Site:
    site = Site()
    site.add_route(
        ResourceSpec(
            name="home",
            pattern="/home",
            kind=ResourceKind.PAGE,
            personalization=PersonalizationKind.SEGMENT,
            size_bytes=25_000,
        )
    )
    site.add_route(
        ResourceSpec(
            name="cart",
            pattern="/api/blocks/cart",
            kind=ResourceKind.FRAGMENT,
            personalization=PersonalizationKind.USER,
            size_bytes=2_000,
        )
    )
    return site


def run_to_completion(env, generator):
    process = env.process(generator)
    while not process.triggered:
        env.step()
    return process.value


def main() -> None:
    env = Environment()
    backend = SpeedKitBackend(env, build_site(), pop_names=["edge"])
    # Make the skeleton body carry a placeholder the SW will fill in.
    original = backend.server._render_body

    def with_placeholder(spec, *rest):
        body = original(spec, *rest)
        if spec.name == "home":
            body = "<nav>cart: {{block:cart}}</nav><main>...</main>"
        return body

    backend.server._render_body = with_placeholder
    backend.server.write("carts", "alice", {"items": ["p1", "p2"]}, at=0.0)

    topology = two_tier()
    transport = Transport(env, topology, backend.server, random.Random(0))
    vault = PiiVault(user_id="alice", attributes={"tier": "gold", "locale": "de"})
    consent = ConsentManager.all_granted()
    worker = ServiceWorkerProxy(
        node="client",
        transport=transport,
        cdn=backend.cdn,
        config=SpeedKitConfig(
            segment_personalized=["/home"],
            user_personalized=["/api/blocks/*"],
        ),
        vault=vault,
        consent=consent,
        segments=SegmentResolver(SegmentScheme.ecommerce_default(), vault, consent),
        sketch_client=SketchClient(
            env, backend.sketch, topology, "client", random.Random(1)
        ),
    )

    blocks = [BlockSpec(name="cart", url=URL.parse("/api/blocks/cart"))]
    request = Request.get(URL.parse("/home"))

    print("== first load (cold) ==")
    response = run_to_completion(env, worker.fetch_assembled(request, blocks))
    print(f"served by: {response.served_by}")
    print(f"body: {response.body[:90]}...")

    print("\n== cart changes, skeleton does not ==")
    backend.server.write("carts", "alice", {"items": ["p1", "p2", "p3"]}, at=env.now)
    response = run_to_completion(env, worker.fetch_assembled(request, blocks))
    print(f"served by: {response.served_by}   <- skeleton from SW cache")
    print(f"body: {response.body[:90]}...")

    print("\nGDPR check: what does the shared infrastructure hold?")
    for key in backend.cdn.pop("edge").store.keys():
        print(f"  edge cache: {key}")
    print("  (only the segment-variant skeleton — never the cart)")


if __name__ == "__main__":
    main()
