"""Network topology: nodes, links, and round-trip computation."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.simnet.delay import ConstantDelay, Delay


class NodeKind(enum.Enum):
    """Roles a node can play in the content-delivery topology."""

    CLIENT = "client"
    EDGE = "edge"
    ORIGIN = "origin"


#: The origin's node name, the one every component addressing it keys on.
ORIGIN_NODE = "origin"


@dataclass(frozen=True)
class Link:
    """A bidirectional link with a one-way delay and a bandwidth.

    A traversal draws ``delay.sample(rng)``. ``bandwidth`` is in bytes
    per second; ``None`` means unconstrained (transfer time zero
    regardless of size).
    """

    delay: Delay
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        # Chained, so NaN fails it too; unconstrained is ``None``, not ∞.
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ValueError(
                f"bandwidth must be finite and positive, got {self.bandwidth}"
            )

    def transfer_time(self, size_bytes: float) -> float:
        """Serialization time for a payload of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError(f"negative size {size_bytes}")
        if self.bandwidth is None:
            return 0.0
        return size_bytes / self.bandwidth


class Topology:
    """Named nodes connected by links.

    Lookups between unconnected nodes raise — a simulation reaching for
    a path that was never modeled is a bug, not a zero-latency hop.
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, NodeKind] = {}
        # The same nodes by kind, in insertion order: finding a PoP
        # costs O(PoPs), however many clients there are.
        self._by_kind: Dict[NodeKind, List[str]] = {
            kind: [] for kind in NodeKind
        }
        self._links: Dict[Tuple[str, str], Link] = {}

    def add_node(self, name: str, kind: NodeKind) -> None:
        if name in self._kinds:
            raise ValueError(f"node {name!r} already exists")
        self._kinds[name] = kind
        self._by_kind[kind].append(name)

    def connect(self, a: str, b: str, link: Link) -> None:
        for name in (a, b):
            if name not in self._kinds:
                raise KeyError(f"unknown node {name!r}")
        self._links[self._key(a, b)] = link

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def kind(self, name: str) -> NodeKind:
        return self._kinds[name]

    def nodes(self, kind: Optional[NodeKind] = None) -> List[str]:
        if kind is None:
            return list(self._kinds)
        return list(self._by_kind[kind])

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[self._key(a, b)]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        return self._key(a, b) in self._links

    def nearest_edge(self, client: str) -> str:
        """The edge PoP with the lowest expected delay from ``client``.

        Ties are broken by node name so the choice is deterministic.
        """
        edges = [
            name
            for name in self._by_kind[NodeKind.EDGE]
            if self.has_link(client, name)
        ]
        if not edges:
            raise KeyError(f"client {client!r} has no reachable edge PoP")
        return min(
            edges, key=lambda name: (self.link(client, name).delay.mean(), name)
        )


def two_tier(
    client_edge_delay: float = 0.01,
    edge_origin_delay: float = 0.04,
    client_origin_delay: float = 0.05,
) -> Topology:
    """A minimal deterministic topology for unit tests: one of each."""
    topo = Topology()
    topo.add_node("client", NodeKind.CLIENT)
    topo.add_node("edge", NodeKind.EDGE)
    topo.add_node(ORIGIN_NODE, NodeKind.ORIGIN)
    topo.connect("client", "edge", Link(ConstantDelay(client_edge_delay)))
    topo.connect("edge", ORIGIN_NODE, Link(ConstantDelay(edge_origin_delay)))
    topo.connect("client", ORIGIN_NODE, Link(ConstantDelay(client_origin_delay)))
    return topo
