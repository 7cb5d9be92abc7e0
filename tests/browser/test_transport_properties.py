"""Property tests for transport timing invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser import Transport
from repro.cdn import Cdn
from repro.http import Request, Status, URL
from repro.origin import (
    OriginServer,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.sim import Environment
from repro.simnet import ConstantDelay, Link, NodeKind, Topology


def build(client_edge, edge_origin, client_origin):
    env = Environment()
    topo = Topology()
    topo.add_node("client", NodeKind.CLIENT)
    topo.add_node("edge", NodeKind.EDGE)
    topo.add_node("origin", NodeKind.ORIGIN)
    topo.connect("client", "edge", Link(ConstantDelay(client_edge)))
    topo.connect("edge", "origin", Link(ConstantDelay(edge_origin)))
    topo.connect("client", "origin", Link(ConstantDelay(client_origin)))
    site = Site()
    site.add_route(
        ResourceSpec(
            name="page",
            pattern="/p/{id}",
            kind=ResourceKind.PAGE,
            doc_keys=lambda p: [f"docs/{p['id']}"],
        )
    )
    site.store.put("docs", "1", {"x": 1})
    server = OriginServer(site)
    transport = Transport(env, topo, server, random.Random(0))
    return env, transport, Cdn(["edge"])


def run(env, generator):
    process = env.process(generator)
    env.run()
    return process.value


delays = st.tuples(
    st.floats(0.001, 0.1),  # client-edge
    st.floats(0.001, 0.1),  # edge-origin
    st.floats(0.001, 0.3),  # client-origin
)


@given(d=delays)
@settings(max_examples=30, deadline=None)
def test_cdn_hit_is_never_slower_than_the_miss(d):
    env, transport, cdn = build(*d)
    request = Request.get(URL.parse("/p/1"))
    start = env.now
    run(env, transport.fetch_via_cdn("client", request, cdn))
    miss_time = env.now - start
    start = env.now
    response = run(
        env, transport.fetch_via_cdn("client", request, cdn)
    )
    hit_time = env.now - start
    assert response.served_by == "edge"
    assert hit_time <= miss_time + 1e-12


@given(d=delays)
@settings(max_examples=30, deadline=None)
def test_miss_time_decomposes_into_both_hops(d):
    client_edge, edge_origin, client_origin = d
    env, transport, cdn = build(*d)
    request = Request.get(URL.parse("/p/1"))
    run(env, transport.fetch_via_cdn("client", request, cdn))
    assert env.now == pytest.approx(
        2 * client_edge + 2 * edge_origin, rel=1e-9
    )


@given(d=delays)
@settings(max_examples=30, deadline=None)
def test_direct_fetch_is_one_round_trip(d):
    _, _, client_origin = d
    env, transport, cdn = build(*d)
    request = Request.get(URL.parse("/p/1"))
    response = run(env, transport.fetch_direct("client", request))
    assert response.status == Status.OK
    assert env.now == pytest.approx(2 * client_origin, rel=1e-9)
