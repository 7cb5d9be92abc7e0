"""Soundness of the origin's rendition table.

A rendition is a pre-built response representation kept per live
variant ``(version_key, segment)`` and dropped by the same change step
that bumps the version key. Four claims are held here:

(a) *Equivalence* — under any interleaving of reads and writes, every
    response equals, header for header and byte for byte, what a fresh
    :class:`OriginServer` over the same store and version history
    renders from scratch.
(b) *Engine-access parity* — a rendition hit still performs the
    modelled storage access: against a charged (batched remote) origin
    store the op counts, drained latency and RNG position after repeat
    reads are the numbers the pre-rendition server produced.
(c) 404s are never stored; a later insert is served.
(d) The table holds at most one rendition per live variant.
"""

import copy
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.http import Headers, Request, Status, URL
from repro.origin import (
    DocumentStore,
    Eq,
    OriginServer,
    PersonalizationKind,
    Query,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.origin.server import SEGMENT_PARAM
from repro.storage import BatchedRemoteBackend

PRODUCTS = ["1", "2", "3", "4"]
CATEGORIES = ["shoes", "hats"]
USERS = ["u1", "u2"]
SEGMENTS = [None, "a", "b"]

READ_PATHS = (
    [f"/product/{pid}" for pid in PRODUCTS]
    + [f"/api/product/{pid}" for pid in PRODUCTS]
    + [f"/account/{pid}" for pid in PRODUCTS]
    + [f"/category/{name}" for name in CATEGORIES]
    + ["/api/blocks/cart", "/static/app.js", "/nowhere"]
)


def build_site(backend=None):
    site = Site(store=DocumentStore(backend))
    site.add_route(
        ResourceSpec(
            name="asset",
            pattern="/static/{name}",
            kind=ResourceKind.STATIC,
            doc_keys=lambda p: [f"assets/{p['name']}"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="product-page",
            pattern="/product/{id}",
            kind=ResourceKind.PAGE,
            personalization=PersonalizationKind.SEGMENT,
            doc_keys=lambda p: [f"products/{p['id']}"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="product-api",
            pattern="/api/product/{id}",
            kind=ResourceKind.API,
            doc_keys=lambda p: [f"products/{p['id']}"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="account",
            pattern="/account/{id}",
            kind=ResourceKind.FRAGMENT,
            personalization=PersonalizationKind.USER,
            doc_keys=lambda p: [f"products/{p['id']}"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="category",
            pattern="/category/{name}",
            kind=ResourceKind.QUERY,
            query=lambda p: Query(
                "products",
                Eq("category", p["name"]),
                order_by="price",
                limit=2,
            ),
        )
    )
    site.add_route(
        ResourceSpec(
            name="cart",
            pattern="/api/blocks/cart",
            kind=ResourceKind.FRAGMENT,
            personalization=PersonalizationKind.USER,
        )
    )
    site.store.put("assets", "app.js", {"kind": "js"})
    site.store.put("products", "1", {"category": "shoes", "price": 10})
    site.store.put("products", "2", {"category": "hats", "price": 5})
    return site


def make_request(path, user=None, segment=None, etag=None):
    url = URL.parse(path)
    if segment is not None:
        url = url.with_param(SEGMENT_PARAM, segment)
    headers = {}
    if user is not None:
        headers["Cookie"] = f"theme=dark; session={user}"
    if etag is not None:
        headers["If-None-Match"] = etag
    return Request.get(url, headers=Headers(headers))


def render_from_scratch(server, request, now):
    """What a brand-new server — same store, same version history and
    query registry, empty rendition table — answers."""
    store = server.site.store
    fresh = OriginServer(server.site, ttl_policy=server.ttl_policy)
    try:
        fresh.versions = copy.deepcopy(server.versions)
        fresh._matcher = copy.deepcopy(server._matcher)
        return fresh.handle(request, now)
    finally:
        store._listeners.pop()  # the fresh server's, subscribed last


def assert_same_response(actual, expected):
    assert actual.status == expected.status
    assert list(actual.headers.items()) == list(expected.headers.items())
    assert actual.body == expected.body
    assert actual == expected


class RenditionMachine(RuleBasedStateMachine):
    """Reads and writes in any order; every read is checked against a
    from-scratch render."""

    def __init__(self):
        super().__init__()
        self.site = build_site()
        self.server = OriginServer(self.site)
        self.now = 0.0
        self.etags = {}
        self.variants_read = set()

    def _tick(self):
        self.now += 1.0
        return self.now

    @rule(
        path=st.sampled_from(READ_PATHS),
        user=st.sampled_from([None] + USERS),
        segment=st.sampled_from(SEGMENTS),
        conditional=st.booleans(),
    )
    def read(self, path, user, segment, conditional):
        now = self._tick()
        seen = (path, user, segment)
        # A remembered validator may be current (→ 304) or superseded
        # by a write since (→ 200): both branches must agree.
        etag = self.etags.get(seen) if conditional else None
        request = make_request(path, user, segment, etag)
        expected = render_from_scratch(self.server, request, now)
        actual = self.server.handle(request, now)
        assert_same_response(actual, expected)
        if actual.status == Status.OK:
            self.etags[seen] = actual.etag
            self.variants_read.add(
                (actual.headers["X-Version-Key"], segment)
            )

    @rule(
        pid=st.sampled_from(PRODUCTS),
        category=st.sampled_from(CATEGORIES),
        price=st.integers(1, 20),
    )
    def put_product(self, pid, category, price):
        # Also the first-insert-into-a-query's-result case, and the
        # second half of delete-then-re-put: the document's own version
        # restarts at 1 while the resource version keeps counting.
        self.server.write(
            "products",
            pid,
            {"category": category, "price": price, "tags": ["t", [price]]},
            at=self._tick(),
        )

    @rule(pid=st.sampled_from(PRODUCTS), price=st.integers(1, 20))
    def update_product(self, pid, price):
        if self.site.store.get("products", pid) is not None:
            self.server.update(
                "products", pid, {"price": price}, at=self._tick()
            )

    @rule(pid=st.sampled_from(PRODUCTS))
    def delete_product(self, pid):
        self.site.store.delete("products", pid, at=self._tick())

    @rule(pid=st.sampled_from(PRODUCTS), price=st.integers(1, 20))
    def delete_then_reput(self, pid, price):
        self.site.store.delete("products", pid, at=self._tick())
        self.server.write(
            "products",
            pid,
            {"category": "shoes", "price": price},
            at=self._tick(),
        )

    @rule(user=st.sampled_from(USERS), item=st.sampled_from(PRODUCTS))
    def put_cart(self, user, item):
        self.server.write("carts", user, {"items": [item]}, at=self._tick())

    @rule(user=st.sampled_from(USERS))
    def delete_cart(self, user):
        self.site.store.delete("carts", user, at=self._tick())

    @invariant()
    def at_most_one_rendition_per_live_variant(self):
        held = {
            (version_key, segment)
            for version_key, variants in self.server._renditions.items()
            for segment in variants
        }
        assert held <= self.variants_read
        assert self.server.rendition_count == len(held)

    @invariant()
    def every_held_rendition_is_current(self):
        for version_key, variants in self.server._renditions.items():
            current = self.server.versions.current(version_key)
            for rendition in variants.values():
                assert rendition.version == current


TestRenditionEquivalence = RenditionMachine.TestCase
TestRenditionEquivalence.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def get(server, path, now=0.0, **kwargs):
    return server.handle(make_request(path, **kwargs), now)


class TestEngineAccessParity:
    """A hit owes the storage engine what a build owes it."""

    def _server(self):
        backend = BatchedRemoteBackend(rng=random.Random(7))
        site = build_site(backend)
        site.store.put("carts", "u1", {"items": ["1"]})
        site.store.drain_latency()
        backend.op_counts.clear()
        return OriginServer(site), backend

    def _repeat_reads(self, server, rounds):
        for i in range(rounds):
            now = float(i)
            assert get(server, "/product/1", now).status == Status.OK
            assert get(server, "/product/1", now, segment="a").status == Status.OK
            assert get(server, "/category/shoes", now).status == Status.OK
            assert get(server, "/api/blocks/cart", now, user="u1").status == Status.OK
            assert get(server, "/account/1", now, user="u1").status == Status.OK
            assert get(server, "/api/product/9", now).status == (
                Status.NOT_FOUND
            )

    def test_repeat_reads_charge_the_engine_like_the_parent(self):
        """Numbers pinned from the commit before renditions existed
        (same script, ``OriginServer`` re-rendering every response)."""
        server, backend = self._server()
        self._repeat_reads(server, rounds=5)
        assert backend.op_counts == {"get": 40, "scan": 5}
        assert server.site.store.drain_latency() == PINNED_DRAINED
        assert backend.rng.random() == PINNED_NEXT_DRAW

    def test_hits_and_builds_charge_alike(self):
        """Round 1 builds every rendition, later rounds hit them."""
        server, backend = self._server()
        self._repeat_reads(server, rounds=1)
        first = dict(backend.op_counts)
        backend.op_counts.clear()
        self._repeat_reads(server, rounds=1)
        assert backend.op_counts == first == {"get": 8, "scan": 1}


#: See TestEngineAccessParity: taken at the parent commit.
PINNED_DRAINED = 0.0044476201859838995
PINNED_NEXT_DRAW = 0.03749565844198488


class TestNotFound:
    def test_404_is_never_stored_and_a_later_insert_is_served(self):
        server = OriginServer(build_site())
        for now in (0.0, 1.0):
            assert get(server, "/product/9", now).status == Status.NOT_FOUND
            assert server.rendition_count == 0
        server.write("products", "9", {"category": "hats", "price": 1}, at=2.0)
        response = get(server, "/product/9", 3.0)
        assert response.status == Status.OK
        assert '"price": 1' in response.body
        assert server.rendition_count == 1

    def test_deleting_the_document_turns_a_served_page_into_404(self):
        server = OriginServer(build_site())
        assert get(server, "/product/1").status == Status.OK
        server.site.store.delete("products", "1", at=1.0)
        assert get(server, "/product/1", 2.0).status == Status.NOT_FOUND
        assert server.rendition_count == 0


class TestOneRenditionPerLiveVariant:
    def test_repeat_reads_do_not_grow_the_table(self):
        server = OriginServer(build_site())
        for now in range(4):
            get(server, "/product/1", now)
            get(server, "/product/1", now, segment="a")
            get(server, "/product/1", now, segment="b")
            get(server, "/category/shoes", now)
            get(server, "/api/blocks/cart", now, user="u1")
            get(server, "/api/blocks/cart", now, user="u2")
        assert server.rendition_count == 6

    def test_a_write_drops_exactly_the_bumped_variants(self):
        server = OriginServer(build_site())
        get(server, "/product/1")
        get(server, "/product/1", segment="a")
        get(server, "/product/2")
        get(server, "/category/shoes")
        get(server, "/category/hats")
        assert server.rendition_count == 5
        # Product 1 is a shoe: both of its segment variants and the
        # shoes listing die; product 2 and the hats listing live on.
        server.update("products", "1", {"price": 11}, at=1.0)
        assert sorted(server._renditions) == [
            "shop.example/category/hats",
            "shop.example/product/2",
        ]

    def test_identity_without_segment_shares_the_anonymous_rendition(self):
        """A SEGMENT page asked for with a cookie but no segment is
        uncacheable downstream (Cache-Control), yet its body is the
        anonymous one: one rendition, two Cache-Control answers."""
        server = OriginServer(build_site())
        anonymous = get(server, "/product/1")
        identified = get(server, "/product/1", 1.0, user="u1")
        assert server.rendition_count == 1
        assert identified.body == anonymous.body
        assert not anonymous.cache_control.forbids_storing(shared=True)
        assert identified.cache_control.no_store
