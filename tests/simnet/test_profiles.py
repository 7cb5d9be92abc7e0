"""Tests for connection profiles and the standard web topology."""

import random

import pytest

from repro.simnet import (
    CONNECTION_PROFILES,
    NodeKind,
    build_web_topology,
)


@pytest.fixture
def rng():
    return random.Random(0)


def test_all_profiles_have_sane_shapes():
    for profile in CONNECTION_PROFILES.values():
        # Edge PoPs must be closer than the origin: that is the entire
        # point of a CDN, and experiments rely on it.
        assert profile.edge_delay < profile.origin_delay
        assert profile.bandwidth > 0


def test_known_profiles_present():
    assert {"fiber", "cable", "lte", "3g"} <= set(CONNECTION_PROFILES)


def test_build_topology_structure():
    topo = build_web_topology(
        clients=["c1", "c2"],
        profiles={"c1": "cable", "c2": "3g"},
        edges=["edge-1", "edge-2"],
    )
    assert set(topo.nodes(NodeKind.CLIENT)) == {"c1", "c2"}
    assert set(topo.nodes(NodeKind.EDGE)) == {"edge-1", "edge-2"}
    assert topo.nodes(NodeKind.ORIGIN) == ["origin"]
    # Clients reach every edge and the origin directly.
    for client in ("c1", "c2"):
        assert topo.has_link(client, "edge-1")
        assert topo.has_link(client, "edge-2")
        assert topo.has_link(client, "origin")
    for edge in ("edge-1", "edge-2"):
        assert topo.has_link(edge, "origin")


def test_unknown_profile_raises():
    with pytest.raises(KeyError):
        build_web_topology(clients=["c"], profiles={"c": "dial-up"})


def test_edge_path_beats_origin_path_on_average(rng):
    topo = build_web_topology(clients=["c"], profiles={"c": "cable"})
    edge_mean = topo.link("c", "edge-1").delay.mean()
    origin_mean = topo.link("c", "origin").delay.mean()
    assert edge_mean < origin_mean


def test_nearest_edge_resolves():
    topo = build_web_topology(
        clients=["c"], profiles={"c": "lte"}, edges=["edge-1", "edge-2"]
    )
    assert topo.nearest_edge("c") in {"edge-1", "edge-2"}


class TestRegions:
    def build(self):
        return build_web_topology(
            clients=["c-eu", "c-us"],
            profiles={"c-eu": "cable", "c-us": "cable"},
            edges=["edge-eu", "edge-us"],
            client_regions={"c-eu": "eu", "c-us": "us"},
            edge_regions={"edge-eu": "eu", "edge-us": "us"},
        )

    def test_clients_only_reach_their_region(self):
        topo = self.build()
        assert topo.has_link("c-eu", "edge-eu")
        assert not topo.has_link("c-eu", "edge-us")
        assert topo.nearest_edge("c-us") == "edge-us"

    def test_origin_reachable_from_everywhere(self):
        topo = self.build()
        assert topo.has_link("c-eu", "origin")
        assert topo.has_link("edge-us", "origin")

    def test_regions_must_be_given_together(self):
        with pytest.raises(ValueError, match="together"):
            build_web_topology(
                clients=["c"],
                profiles={"c": "cable"},
                client_regions={"c": "eu"},
            )

    def test_uncovered_region_rejected(self):
        with pytest.raises(ValueError, match="without any edge"):
            build_web_topology(
                clients=["c"],
                profiles={"c": "cable"},
                edges=["edge-us"],
                client_regions={"c": "eu"},
                edge_regions={"edge-us": "us"},
            )
