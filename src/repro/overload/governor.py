"""Per-node concurrency governor: slots, priority queue, shedding.

One :class:`NodeGovernor` sits in front of one node (a PoP or the
origin) inside the transport. A request *offers* itself with a
:class:`~repro.overload.priority.PriorityClass`; the governor either

* admits it immediately (a slot is free and nobody is queued),
* enqueues it in the bounded priority queue (CONTROL before STATIC
  before PERSONALIZED; FIFO within a class), or
* sheds it — admission control on, the class is sheddable, and the
  queue is already at that class's depth limit.

An admitted request holds a slot for the node's ``service_time`` and
releases it before the node's real work (cache lookup, origin handle)
runs at the simulated instant of the grant — the governor adds the
*queueing* physics; the content logic downstream is unchanged.

With admission control **off** the governor is an unbounded FIFO (all
classes queue, nothing is shed): exactly the uncontrolled baseline
whose latency collapse the E25 benchmark measures.

Everything observable is published to the metrics registry
(``overload.<node>.*`` gauges/counters and a queue-wait histogram) — the
autoscaler reads *only* that stream, never the governor's internals —
and, when tracing is on, queue waits and sheds appear as
``overload.queue`` / ``overload.shed`` spans in the request's trace.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.obs.tracer import NOOP_TRACER
from repro.overload.priority import PriorityClass
from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["NodeGovernor"]


class NodeGovernor:
    """Bounded priority admission in front of one node."""

    def __init__(
        self,
        env: Environment,
        node: str,
        capacity: int,
        service_time: float,
        queue_limit: int,
        personalized_queue_limit: int,
        admission: bool = False,
        metrics=None,
        tracer=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.env = env
        self.node = node
        self.capacity = capacity
        self.service_time = service_time
        self.queue_limit = queue_limit
        self.personalized_queue_limit = personalized_queue_limit
        self.admission = admission
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._active = 0
        #: (class rank, arrival seq, event, weight) — heap order is
        #: priority first, then strict FIFO within a class.
        self._waiting: List[Tuple[int, int, Event, int]] = []
        self._seq = 0
        self.queue_depth_peak = 0
        #: Busy-slot integral (slot-seconds); published as the
        #: ``overload.<node>.busy_seconds`` counter so utilization is
        #: computable from the metrics stream alone.
        self._busy_area = 0.0
        self._last_change = env.now
        if self.metrics is not None:
            self.metrics.gauge(f"overload.{node}.capacity").set(capacity)

    # -- metrics plumbing --------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _advance_busy_clock(self) -> None:
        """Fold elapsed busy time into the integral (before a change)."""
        now = self.env.now
        area = self._active * (now - self._last_change)
        self._last_change = now
        if area > 0:
            self._busy_area += area
            if self.metrics is not None:
                self.metrics.counter(
                    f"overload.{self.node}.busy_seconds"
                ).inc(area)

    def _publish_depth(self) -> None:
        depth = len(self._waiting)
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth
        if self.metrics is not None:
            self.metrics.gauge(f"overload.{self.node}.queue_depth").set(
                depth
            )
            self.metrics.gauge(f"overload.{self.node}.active").set(
                self._active
            )

    # -- admission ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    @property
    def active(self) -> int:
        return self._active

    def _shed_limit(self, cls: PriorityClass) -> int:
        if cls is PriorityClass.PERSONALIZED:
            return self.personalized_queue_limit
        return self.queue_limit

    def _would_shed(self, cls: PriorityClass) -> bool:
        if not self.admission or not cls.sheddable:
            return False
        return len(self._waiting) >= self._shed_limit(cls)

    def acquire(self, cls: PriorityClass, parent=None, weight: int = 1):
        """Generator: hold one slot for ``service_time``, or shed.

        Returns ``True`` when the request was admitted (slot taken,
        service time charged, slot released) and ``False`` when it was
        shed — the caller then synthesizes the marked shed response.
        ``weight`` is the number of logical requests riding this slot
        (a batched page-load wave is one slot, many responses); all
        counters are weighted so governor-side accounting matches
        response-side accounting one to one.
        """
        self._count("overload.offered.total", weight)
        self._count(f"overload.{self.node}.offered.{cls.label}", weight)
        if self._active < self.capacity and not self._waiting:
            self._advance_busy_clock()
            self._active += 1
            self._publish_depth()
        else:
            if self._would_shed(cls):
                self._shed(cls, parent, weight)
                return False
            arrived = self.env.now
            slot_event = self.env.event()
            heapq.heappush(
                self._waiting, (cls.rank, self._seq, slot_event, weight)
            )
            self._seq += 1
            self._publish_depth()
            self._count("overload.queued.total", weight)
            queue_span = self.tracer.start(
                "overload.queue",
                arrived,
                parent=parent,
                node=self.node,
                tier="overload",
                cls=cls.label,
                n=weight,
                depth=len(self._waiting),
            )
            yield slot_event  # release() hands the slot over
            self.tracer.finish(queue_span, self.env.now)
            if self.metrics is not None:
                self.metrics.histogram(f"overload.{self.node}.wait").observe(
                    self.env.now - arrived
                )
        self._count("overload.admitted.total", weight)
        self._count(f"overload.{self.node}.admitted.{cls.label}", weight)
        if self.service_time > 0:
            yield self.env.timeout(self.service_time)
        self._release()
        return True

    def _shed(self, cls: PriorityClass, parent, weight: int) -> None:
        self._count("overload.shed.total", weight)
        self._count(f"overload.shed.{cls.label}", weight)
        self._count(f"overload.{self.node}.shed.{cls.label}", weight)
        span = self.tracer.start(
            "overload.shed",
            self.env.now,
            parent=parent,
            node=self.node,
            tier="overload",
            cls=cls.label,
            n=weight,
            depth=len(self._waiting),
        )
        self.tracer.finish(span, self.env.now)

    def _release(self) -> None:
        """Free one slot and grant it to the best queued waiter."""
        self._advance_busy_clock()
        self._active -= 1
        self._grant_waiters()
        self._publish_depth()

    def _grant_waiters(self) -> None:
        while self._active < self.capacity and self._waiting:
            _, _, slot_event, _ = heapq.heappop(self._waiting)
            self._active += 1
            slot_event.succeed()

    def set_capacity(self, capacity: int) -> None:
        """Autoscaler hook: resize, waking queued waiters on growth.

        Shrinking never preempts requests already holding slots — the
        governor simply grants no new slot until ``active`` drains
        below the new capacity.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self._advance_busy_clock()
        self.capacity = capacity
        if self.metrics is not None:
            self.metrics.gauge(f"overload.{self.node}.capacity").set(
                capacity
            )
        self._grant_waiters()
        self._publish_depth()
