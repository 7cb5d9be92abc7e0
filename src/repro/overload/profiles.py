"""Named overload profiles: capacity models for PoPs and the origin.

A profile declares how much concurrent work each node can do and how
long one admitted request holds a slot — the minimal queueing model
(c servers, deterministic service time, bounded priority queue) that
reproduces the overload phenomenology: below saturation the governor
is invisible; above it, an *ungoverned* bounded-capacity node grows an
unbounded FIFO queue and latency collapses, while admission control
sheds the lowest-priority work and keeps queues (and therefore the
latency of everything still admitted) bounded.

All values are infrastructure parameters — they model how fast the
*system* is, not how fast a recorded timeline plays — so rate-scaled
replay (``--replay-rate``) leaves them untouched, exactly like network
transit times (see :meth:`repro.harness.scenarios.ScenarioSpec.time_scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["OVERLOAD_PROFILES", "OverloadProfile"]


@dataclass(frozen=True)
class OverloadProfile:
    """Capacity/queue/SLO parameters of one overload regime.

    Frozen and plain-data on purpose: the profile rides inside
    :class:`~repro.harness.scenarios.ScenarioSpec` across the
    ``--shards`` process boundary, so it must stay picklable and
    hashable (benchmark run caches key on the spec).
    """

    name: str
    #: Concurrent requests the origin can process (0 = ungoverned).
    origin_capacity: int = 0
    #: Seconds one admitted request occupies an origin slot.
    origin_service_time: float = 0.0
    #: Concurrent requests one PoP can process (0 = ungoverned).
    pop_capacity: int = 0
    #: Seconds one admitted request occupies a PoP slot.
    pop_service_time: float = 0.0
    #: Queue depth beyond which *static* requests are shed
    #: (admission control on only).
    queue_limit: int = 64
    #: Queue depth beyond which *personalized* requests are shed —
    #: smaller than ``queue_limit`` so personalization degrades first.
    personalized_queue_limit: int = 8
    #: The goodput SLO: a page view counts toward goodput only if its
    #: PLT is within this many seconds and no response was shed,
    #: degraded, or failed.
    slo: float = 2.0

    def __post_init__(self) -> None:
        if self.origin_capacity < 0 or self.pop_capacity < 0:
            raise ValueError("capacities must be >= 0 (0 = ungoverned)")
        if self.origin_service_time < 0 or self.pop_service_time < 0:
            raise ValueError("service times must be >= 0")
        if self.queue_limit < 1 or self.personalized_queue_limit < 1:
            raise ValueError("queue limits must be >= 1")
        if self.personalized_queue_limit > self.queue_limit:
            raise ValueError(
                "personalized_queue_limit must not exceed queue_limit "
                "(personalization sheds before statics)"
            )
        if self.slo <= 0:
            raise ValueError(f"slo must be positive: {self.slo}")

    def queue_delay_bound(self) -> float:
        """Worst-case delivery delay one response accrues in governed
        queues with admission control **on**.

        An admitted request waits behind at most ``queue_limit``
        queued slots plus the slots in service, each holding a slot
        for the node's service time, so one pass through a governed
        node costs at most ``(queue_limit / capacity + 1) *
        service_time``. A response crosses the PoP governor once and
        the origin governor up to twice (a vanished revalidation base
        forces a second full fetch) — hence the doubled origin term.
        Control traffic bypasses the depth limit, but its arrival
        rate is the trace's write rate, far below ``queue_limit``
        over one wait window, and the in-service ``+1`` terms absorb
        it.

        The Δ-atomicity checker widens its bound by this amount:
        bounded queues mean bounded delivery delay, so the coherence
        promise survives saturation. With admission **off** the FIFO
        (and so the delay) is unbounded and the checker stops judging
        instead — see the ``queue_delay`` term of
        ``ScenarioSpec.delta_terms``.
        """
        bound = 0.0
        if self.pop_capacity > 0:
            bound += (
                self.queue_limit / self.pop_capacity + 1.0
            ) * self.pop_service_time
        if self.origin_capacity > 0:
            bound += (
                2.0
                * (self.queue_limit / self.origin_capacity + 1.0)
                * self.origin_service_time
            )
        return bound


#: The named regimes the CLI and benchmarks select from.
OVERLOAD_PROFILES: Dict[str, OverloadProfile] = {
    # The E25 regime: the origin is the scarce resource (uncached and
    # personalized work funnels there), PoPs are fast but finite. At
    # nominal load both run well under capacity; at 10x the origin
    # saturates and the control plane's shed-personalization-first
    # policy is what keeps static pages inside the SLO.
    "flash-crowd": OverloadProfile(
        name="flash-crowd",
        origin_capacity=2,
        origin_service_time=0.25,
        pop_capacity=4,
        pop_service_time=0.01,
        queue_limit=64,
        personalized_queue_limit=8,
        slo=2.0,
    ),
    # PoP-bound: the origin is ungoverned and the PoP starts at one
    # slow slot, so queue pressure lands exactly where the autoscaler
    # acts — the regime the autoscaler's metamorphic tests run in.
    "pop-bound": OverloadProfile(
        name="pop-bound",
        origin_capacity=0,
        origin_service_time=0.0,
        pop_capacity=1,
        pop_service_time=0.25,
        queue_limit=32,
        personalized_queue_limit=6,
        slo=2.0,
    ),
    # Origin-bound: only the origin is governed; PoPs absorb anything.
    # Isolates the shed-before-statics policy from PoP effects.
    "origin-bound": OverloadProfile(
        name="origin-bound",
        origin_capacity=2,
        origin_service_time=0.15,
        pop_capacity=0,
        pop_service_time=0.0,
        queue_limit=48,
        personalized_queue_limit=6,
        slo=2.0,
    ),
}
