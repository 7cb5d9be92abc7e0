"""Tests for topology and link semantics."""

import random

import pytest

from repro.simnet import ConstantDelay, Link, NodeKind, Topology
from repro.simnet.topology import two_tier


@pytest.fixture
def rng():
    return random.Random(0)


class TestLink:
    def test_transfer_time_unconstrained(self):
        link = Link(ConstantDelay(0.01))
        assert link.transfer_time(10**9) == 0.0

    def test_transfer_time_with_bandwidth(self):
        link = Link(ConstantDelay(0.01), bandwidth=1000)
        assert link.transfer_time(500) == 0.5

    def test_transfer_rejects_negative_size(self):
        link = Link(ConstantDelay(0.01), bandwidth=1000)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            Link(ConstantDelay(0.01), bandwidth=0)


class TestTopology:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a", NodeKind.CLIENT)
        with pytest.raises(ValueError):
            topo.add_node("a", NodeKind.EDGE)

    def test_connect_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a", NodeKind.CLIENT)
        with pytest.raises(KeyError):
            topo.connect("a", "ghost", Link(ConstantDelay(0.01)))

    def test_links_are_bidirectional(self, rng):
        topo = two_tier()
        assert topo.link("client", "edge") is topo.link("edge", "client")
        assert topo.link("edge", "client").delay.sample(rng) == 0.01

    def test_missing_link_raises(self):
        topo = Topology()
        topo.add_node("a", NodeKind.CLIENT)
        topo.add_node("b", NodeKind.ORIGIN)
        with pytest.raises(KeyError, match="no link"):
            topo.link("a", "b")

    def test_nodes_filter_by_kind(self):
        topo = two_tier()
        assert topo.nodes(NodeKind.EDGE) == ["edge"]
        assert set(topo.nodes()) == {"client", "edge", "origin"}
        assert topo.kind("origin") is NodeKind.ORIGIN

    def test_nearest_edge_picks_lowest_mean(self):
        topo = Topology()
        topo.add_node("c", NodeKind.CLIENT)
        topo.add_node("far-edge", NodeKind.EDGE)
        topo.add_node("near-edge", NodeKind.EDGE)
        topo.connect("c", "far-edge", Link(ConstantDelay(0.09)))
        topo.connect("c", "near-edge", Link(ConstantDelay(0.01)))
        assert topo.nearest_edge("c") == "near-edge"

    def test_nearest_edge_without_edges_raises(self):
        topo = Topology()
        topo.add_node("c", NodeKind.CLIENT)
        with pytest.raises(KeyError):
            topo.nearest_edge("c")

    def test_nearest_edge_tie_broken_by_name(self):
        topo = Topology()
        topo.add_node("c", NodeKind.CLIENT)
        topo.add_node("edge-b", NodeKind.EDGE)
        topo.add_node("edge-a", NodeKind.EDGE)
        topo.connect("c", "edge-b", Link(ConstantDelay(0.01)))
        topo.connect("c", "edge-a", Link(ConstantDelay(0.01)))
        assert topo.nearest_edge("c") == "edge-a"


class TestKindIndex:
    """The per-kind index ≡ a scan of every node."""

    @staticmethod
    def scan(topo, kind):
        return [name for name in topo.nodes() if topo.kind(name) is kind]

    @staticmethod
    def scanned_nearest_edge(topo, client):
        edges = [
            name
            for name in TestKindIndex.scan(topo, NodeKind.EDGE)
            if topo.has_link(client, name)
        ]
        return min(
            edges, key=lambda name: (topo.link(client, name).delay.mean(), name)
        )

    def test_nodes_by_kind_after_interleaved_adds(self):
        topo = Topology()
        shuffled = random.Random(7)
        for index in range(60):
            kind = shuffled.choice(list(NodeKind))
            topo.add_node(f"n{index}", kind)
            for each in NodeKind:
                assert topo.nodes(each) == self.scan(topo, each)
        assert sum(len(topo.nodes(kind)) for kind in NodeKind) == 60

    def test_returned_list_is_the_callers(self):
        topo = two_tier()
        topo.nodes(NodeKind.EDGE).append("intruder")
        assert topo.nodes(NodeKind.EDGE) == ["edge"]

    def test_nearest_edge_sees_nodes_added_after_its_first_call(self):
        topo = Topology()
        topo.add_node("c", NodeKind.CLIENT)
        topo.add_node("edge-m", NodeKind.EDGE)
        topo.connect("c", "edge-m", Link(ConstantDelay(0.05)))
        assert topo.nearest_edge("c") == "edge-m"
        # More clients change nothing for this one ...
        for index in range(20):
            topo.add_node(f"c{index}", NodeKind.CLIENT)
            topo.connect(f"c{index}", "edge-m", Link(ConstantDelay(0.001)))
        assert topo.nearest_edge("c") == "edge-m"
        # ... an unconnected PoP is not reachable, a farther one loses,
        # a nearer one wins, and an equal one wins only by name.
        topo.add_node("edge-unlinked", NodeKind.EDGE)
        assert topo.nearest_edge("c") == "edge-m"
        for name, delay, expected in (
            ("edge-far", 0.09, "edge-m"),
            ("edge-z", 0.05, "edge-m"),
            ("edge-a", 0.05, "edge-a"),
            ("edge-near", 0.01, "edge-near"),
        ):
            topo.add_node(name, NodeKind.EDGE)
            topo.connect("c", name, Link(ConstantDelay(delay)))
            assert topo.nearest_edge("c") == expected
            assert expected == self.scanned_nearest_edge(topo, "c")
