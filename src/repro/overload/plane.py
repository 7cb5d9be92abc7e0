"""The assembled overload control plane for one simulation run.

Owns one :class:`~repro.overload.governor.NodeGovernor` per governed
node — the origin plus every PoP the profile bounds — and the control
lane that invalidation purges and GDPR erasure walks ride on.

The control lane is deliberately *not* a queue: Speed Kit's production
deployment rides Fastly's instant-purge API, whose control channel is
provisioned separately from the request path, and the repo's existing
invalidation pipeline already models purge cost as its own latency.
The plane therefore admits control tickets unconditionally and counts
them (``overload.control.*``); the compliance property the tests pin
is that **no erasure or invalidation work is ever shed**, whatever the
data-plane load.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.overload.governor import NodeGovernor
from repro.overload.profiles import OverloadProfile
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry
from repro.simnet.topology import ORIGIN_NODE

__all__ = ["ControlPlane"]


class ControlPlane:
    """Governors for every bounded node plus the control lane."""

    def __init__(
        self,
        env: Environment,
        profile: OverloadProfile,
        pop_names: Sequence[str] = (),
        admission: bool = False,
        metrics=None,
        tracer=None,
    ) -> None:
        self.env = env
        self.profile = profile
        self.admission = admission
        self.metrics = metrics
        #: Handles on ``overload.control.<total|kind>`` (without a
        #: registry, on one nobody reads).
        self._control = (
            metrics if metrics is not None else MetricRegistry()
        ).handles("overload.control.")
        self.origin_governor: Optional[NodeGovernor] = None
        if profile.origin_capacity > 0:
            self.origin_governor = NodeGovernor(
                env,
                ORIGIN_NODE,
                capacity=profile.origin_capacity,
                service_time=profile.origin_service_time,
                queue_limit=profile.queue_limit,
                personalized_queue_limit=profile.personalized_queue_limit,
                admission=admission,
                metrics=metrics,
                tracer=tracer,
            )
        self.pop_governors: Dict[str, NodeGovernor] = {}
        if profile.pop_capacity > 0:
            for name in pop_names:
                self.pop_governors[name] = NodeGovernor(
                    env,
                    name,
                    capacity=profile.pop_capacity,
                    service_time=profile.pop_service_time,
                    queue_limit=profile.queue_limit,
                    personalized_queue_limit=(
                        profile.personalized_queue_limit
                    ),
                    admission=admission,
                    metrics=metrics,
                    tracer=tracer,
                )

    def pop_governor(self, name: str) -> Optional[NodeGovernor]:
        return self.pop_governors.get(name)

    def governors(self) -> Dict[str, NodeGovernor]:
        """Every governor by node name (origin included if governed)."""
        out = dict(self.pop_governors)
        if self.origin_governor is not None:
            out[ORIGIN_NODE] = self.origin_governor
        return out

    def control_ticket(self, kind: str, n: int = 1) -> None:
        """Account one batch of control-lane work (never shed).

        ``kind`` is ``"invalidation"`` or ``"erasure"``; ``n`` the
        number of keys/entries the batch covers. Admission is
        unconditional — see the module docstring for why the control
        lane bypasses the data-plane queues.
        """
        self._control["total"].inc(n)
        self._control[kind].inc(n)

    def publish(self) -> None:
        """Flush governor state to the metrics stream (a scrape).

        Busy-time integrals accrue on slot transitions; a scrape folds
        the in-progress interval in so a reader of the metrics stream
        (the autoscaler) sees utilization current as of *now*.
        """
        for governor in self.governors().values():
            governor._advance_busy_clock()
            governor._publish_depth()

    def queue_depth_peak(self) -> int:
        return max(
            (g.queue_depth_peak for g in self.governors().values()),
            default=0,
        )
