"""Shared fixtures: a small full stack for transport fault tests."""

import random

import pytest

from repro.browser import Transport
from repro.cdn import Cdn
from repro.faults import breaker as breaker_module
from repro.origin import (
    OriginServer,
    ResourceKind,
    ResourceSpec,
    Site,
    StaticTtlPolicy,
)
from repro.sim import Environment
from repro.sim.metrics import MetricRegistry
from repro.simnet.topology import two_tier

CLIENT_EDGE = 0.01
EDGE_ORIGIN = 0.04
CLIENT_ORIGIN = 0.05


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def one_failure_trips(monkeypatch):
    """Circuit breakers that open on the first failure."""
    monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 1)


@pytest.fixture
def site():
    site = Site()
    site.add_route(
        ResourceSpec(
            name="page",
            pattern="/page/{id}",
            kind=ResourceKind.PAGE,
            doc_keys=lambda p: [f"pages/{p['id']}"],
            size_bytes=20_000,
        )
    )
    for i in range(5):
        site.store.put("pages", str(i), {"title": f"page {i}"})
    return site


@pytest.fixture
def server(site):
    return OriginServer(site, ttl_policy=StaticTtlPolicy())


@pytest.fixture
def topology():
    return two_tier(
        client_edge_delay=CLIENT_EDGE,
        edge_origin_delay=EDGE_ORIGIN,
        client_origin_delay=CLIENT_ORIGIN,
    )


@pytest.fixture
def cdn():
    return Cdn(["edge"])


@pytest.fixture
def metrics():
    return MetricRegistry()


@pytest.fixture
def make_transport(env, topology, server, metrics):
    """Build a Transport with fault knobs; metrics are pre-wired."""

    def build(**kwargs):
        kwargs.setdefault("metrics", metrics)
        return Transport(env, topology, server, random.Random(0), **kwargs)

    return build


def run_fetch(env, generator):
    """Drive a fetch sub-process to completion; return its response."""
    process = env.process(generator)
    env.run()
    return process.value
