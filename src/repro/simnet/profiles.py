"""Calibrated connection profiles and the standard web topology.

The delay numbers follow the common WebPageTest traffic-shaping
presets (e.g. "Cable": 28 ms RTT / 5 Mbps down, "3G": 150 ms RTT /
1.6 Mbps, "LTE": 70 ms RTT / 12 Mbps), which is also how the Speed Kit
authors report synthetic measurements. Edge PoPs sit close to the
client (CDN points of presence), the origin sits one continent away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.simnet.delay import LogNormalDelay
from repro.simnet.topology import ORIGIN_NODE, Link, NodeKind, Topology


@dataclass(frozen=True)
class ConnectionProfile:
    """Last-mile characteristics of a client connection."""

    name: str
    # One-way median delay from the client to its nearest edge PoP.
    edge_delay: float
    # One-way median delay from the client directly to the origin.
    origin_delay: float
    # Downstream bandwidth in bytes/second.
    bandwidth: float
    # Multiplicative jitter of the log-normal delay distribution.
    sigma: float = 0.25


CONNECTION_PROFILES: Dict[str, ConnectionProfile] = {
    "fiber": ConnectionProfile(
        name="fiber",
        edge_delay=0.002,
        origin_delay=0.045,
        bandwidth=12_500_000,  # 100 Mbps
        sigma=0.15,
    ),
    "cable": ConnectionProfile(
        name="cable",
        edge_delay=0.014,
        origin_delay=0.060,
        bandwidth=625_000,  # 5 Mbps
        sigma=0.25,
    ),
    "lte": ConnectionProfile(
        name="lte",
        edge_delay=0.035,
        origin_delay=0.085,
        bandwidth=1_500_000,  # 12 Mbps
        sigma=0.35,
    ),
    "3g": ConnectionProfile(
        name="3g",
        edge_delay=0.075,
        origin_delay=0.140,
        bandwidth=200_000,  # 1.6 Mbps
        sigma=0.40,
    ),
}

# One-way delay between an edge PoP and the origin data centre
# (intra-backbone, low jitter).
EDGE_ORIGIN_DELAY = 0.035
EDGE_ORIGIN_SIGMA = 0.10
# Backbone bandwidth is effectively unconstrained for web payloads.
EDGE_ORIGIN_BANDWIDTH = 125_000_000  # 1 Gbps


def build_web_topology(
    clients: Sequence[str],
    profiles: Dict[str, str],
    edges: Sequence[str] = ("edge-1",),
    client_regions: Optional[Dict[str, str]] = None,
    edge_regions: Optional[Dict[str, str]] = None,
) -> Topology:
    """Build the standard client ↔ edge ↔ origin topology.

    ``profiles`` maps each client name to a key of
    :data:`CONNECTION_PROFILES`. Without regions, every client connects
    to every edge (the nearest one is picked at request time) and
    directly to the origin (the no-CDN baseline path).

    With ``client_regions``/``edge_regions``, clients connect only to
    the edges of their own region — modelling geographically scoped
    PoPs. Every region must have at least one edge.
    """
    if (client_regions is None) != (edge_regions is None):
        raise ValueError(
            "client_regions and edge_regions must be given together"
        )
    if edge_regions is not None:
        client_region_names = {
            client_regions[client] for client in clients
        }
        covered = set(edge_regions.values())
        missing = client_region_names - covered
        if missing:
            raise ValueError(f"regions without any edge: {sorted(missing)}")

    topo = Topology()
    topo.add_node(ORIGIN_NODE, NodeKind.ORIGIN)
    for edge in edges:
        topo.add_node(edge, NodeKind.EDGE)
        topo.connect(
            edge,
            ORIGIN_NODE,
            Link(
                LogNormalDelay(EDGE_ORIGIN_DELAY, EDGE_ORIGIN_SIGMA),
                bandwidth=EDGE_ORIGIN_BANDWIDTH,
            ),
        )
    for client in clients:
        profile_name = profiles[client]
        profile = CONNECTION_PROFILES[profile_name]
        topo.add_node(client, NodeKind.CLIENT)
        for edge in edges:
            if edge_regions is not None and (
                edge_regions[edge] != client_regions[client]
            ):
                continue
            topo.connect(
                client,
                edge,
                Link(
                    LogNormalDelay(profile.edge_delay, profile.sigma),
                    bandwidth=profile.bandwidth,
                ),
            )
        topo.connect(
            client,
            ORIGIN_NODE,
            Link(
                LogNormalDelay(profile.origin_delay, profile.sigma),
                bandwidth=profile.bandwidth,
            ),
        )
    return topo
