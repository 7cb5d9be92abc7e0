"""Network model: topology and latency.

This is where the milliseconds in every reproduced page-load-time figure
come from. A :class:`Topology` connects named nodes (browsers, CDN edge
PoPs, the origin) with :class:`Link` objects whose one-way delays are
drawn from pluggable distributions; :mod:`repro.simnet.profiles`
provides calibrated presets for typical last-mile connection types.
"""

from repro.simnet.delay import (
    ConstantDelay,
    Delay,
    LogNormalDelay,
)
from repro.simnet.faults import NO_FAULTS, FaultSchedule, OutageWindow
from repro.simnet.profiles import (
    CONNECTION_PROFILES,
    ConnectionProfile,
    build_web_topology,
)
from repro.simnet.topology import ORIGIN_NODE, Link, NodeKind, Topology

__all__ = [
    "ORIGIN_NODE",
    "CONNECTION_PROFILES",
    "ConnectionProfile",
    "ConstantDelay",
    "Delay",
    "FaultSchedule",
    "Link",
    "LogNormalDelay",
    "NO_FAULTS",
    "NodeKind",
    "OutageWindow",
    "Topology",
    "build_web_topology",
]
