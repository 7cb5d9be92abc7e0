"""Failure injection: node outages on a schedule.

A :class:`FaultSchedule` declares windows of simulated time during
which a named node (typically the origin, ``ORIGIN_NODE``) is down. The transport
layer consults it and answers ``503 Service Unavailable`` for requests
reaching a dead node — which is what lets the Speed Kit service worker
demonstrate its offline-resilience behaviour (serving cached copies
through an origin outage).

It is also the whole *fault oracle* surface the request path calls:
``is_down`` plus the three per-message queries, which here answer
"nothing else goes wrong" without touching any RNG.
:class:`~repro.faults.injector.FaultInjector` overrides them with
seeded coin flips; :data:`NO_FAULTS` is the perfect world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List

from repro.simnet.topology import ORIGIN_NODE


@dataclass(frozen=True)
class OutageWindow:
    """One [start, end) interval of unavailability."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"empty outage window [{self.start}, {self.end})"
            )

    def covers(self, at: float) -> bool:
        return self.start <= at < self.end


@dataclass
class FaultSchedule:
    """Outage windows per node name."""

    outages: Dict[str, List[OutageWindow]] = field(default_factory=dict)

    def add_outage(self, node: str, start: float, end: float) -> None:
        """Declare that ``node`` is down during [start, end)."""
        self.outages.setdefault(node, []).append(OutageWindow(start, end))

    def is_down(self, node: str, at: float) -> bool:
        for window in self.outages.get(node, ()):
            if window.covers(at):
                return True
        return False

    def should_fail(self, node: str, at: float) -> bool:
        """Whether ``node`` fails a request arriving at ``at``."""
        return self.is_down(node, at)

    def loses_message(self, sender: str, receiver: str) -> bool:
        """Whether one message traversal is lost in transit."""
        return False

    def latency_factor(self, sender: str, receiver: str) -> float:
        """Delay multiplier for one traversal (1.0 = nominal)."""
        return 1.0

    def total_downtime(self, node: str) -> float:
        return sum(
            window.end - window.start
            for window in self.outages.get(node, ())
        )

    @classmethod
    def origin_outage(cls, start: float, end: float) -> "FaultSchedule":
        """The common case: one origin outage window."""
        schedule = cls()
        schedule.add_outage(ORIGIN_NODE, start, end)
        return schedule


#: The oracle of a run without faults, shared by every component that
#: was handed none. Its outage map is read-only, so ``add_outage`` on
#: it raises instead of failing every run in the process.
NO_FAULTS = FaultSchedule(outages=MappingProxyType({}))
