"""Closed-loop PoP autoscaling driven by the metrics stream.

A simulation process samples each governed PoP every ``INTERVAL``
simulated seconds and scales its slot capacity up or down with
hysteresis:

* **up** after ``UP_CONSECUTIVE`` samples with utilization at or above
  ``HIGH_UTILIZATION`` *or* queue depth at or above
  ``HIGH_QUEUE_DEPTH`` — capacity multiplies by ``FACTOR`` (capped at
  ``MAX_CAPACITY``), immediately granting queued waiters;
* **down** after ``DOWN_CONSECUTIVE`` samples with utilization at or
  below ``LOW_UTILIZATION`` *and* an empty queue — capacity divides by
  ``FACTOR`` (floored at the profile's original capacity), never
  preempting requests already in service;
* a per-PoP ``COOLDOWN`` separates consecutive decisions in either
  direction, so a scale-up cannot immediately un-trip itself on the
  transient utilization drop it causes.

Every input is read from the :class:`~repro.sim.metrics.MetricRegistry`
stream the governors publish (``overload.<pop>.queue_depth`` /
``.capacity`` gauges, the ``.busy_seconds`` counter, the ``.wait``
histogram) — the loop never reaches into governor internals, so the same
decisions could be replayed against an exported metrics feed.

Determinism: sampling phase is jittered from the seeded ``autoscale``
RNG stream, PoPs are evaluated in sorted-name order, and the loop is
bounded by the trace horizon — so the full decision sequence is a
pure function of ``(seed, workload, profile)``, reproducible serially
and under ``--shards`` (each shard scales its own PoP set from its
spawn-keyed stream).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.tracer import NOOP_TRACER
from repro.overload.plane import ControlPlane
from repro.sim.environment import Environment

__all__ = ["PopAutoscaler", "ScaleDecision"]

#: Control-loop tuning; the values fit the simulated regimes.
INTERVAL = 5.0
HIGH_UTILIZATION = 0.8
LOW_UTILIZATION = 0.3
HIGH_QUEUE_DEPTH = 4
UP_CONSECUTIVE = 2
DOWN_CONSECUTIVE = 4
FACTOR = 2.0
MAX_CAPACITY = 256
COOLDOWN = 10.0
#: Sampling-phase jitter as a fraction of ``INTERVAL`` (drawn from the
#: seeded decision stream).
JITTER = 0.1


@dataclass(frozen=True)
class ScaleDecision:
    """One recorded capacity change (the deterministic audit trail)."""

    at: float
    node: str
    direction: str  # "up" | "down"
    from_capacity: int
    to_capacity: int
    utilization: float
    queue_depth: int


@dataclass
class _PopState:
    floor: int
    consecutive_high: int = 0
    consecutive_low: int = 0
    last_scaled_at: float = field(default=-math.inf)
    last_busy_seconds: float = 0.0
    last_sample_at: float = 0.0


class PopAutoscaler:
    """The scaling loop; constructing it starts the process."""

    def __init__(
        self,
        env: Environment,
        plane: ControlPlane,
        metrics,
        rng: random.Random,
        horizon: float,
        tracer=None,
    ) -> None:
        self.env = env
        self.plane = plane
        self.metrics = metrics
        self.rng = rng
        self.horizon = horizon
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.decisions: List[ScaleDecision] = []
        self._states: Dict[str, _PopState] = {
            name: _PopState(
                floor=governor.capacity,
                last_sample_at=env.now,
            )
            for name, governor in sorted(plane.pop_governors.items())
        }
        if self._states:
            env.process(self._run())

    # -- the loop ----------------------------------------------------------

    def _run(self):
        while True:
            delay = INTERVAL * (1.0 + JITTER * (self.rng.random() - 0.5))
            if self.env.now + delay > self.horizon:
                return
            yield self.env.timeout(delay)
            self._evaluate()

    def _evaluate(self) -> None:
        # One scrape per tick: fold in-progress busy time into the
        # stream, then decide purely from what the stream says.
        self.plane.publish()
        for name in sorted(self._states):
            self._evaluate_pop(name)

    def _read(self, name: str) -> tuple:
        depth = self.metrics.gauge(f"overload.{name}.queue_depth").value
        capacity = self.metrics.gauge(f"overload.{name}.capacity").value
        busy = self.metrics.counter(f"overload.{name}.busy_seconds").value
        return int(depth), int(capacity), float(busy)

    def _evaluate_pop(self, name: str) -> None:
        state = self._states[name]
        now = self.env.now
        depth, capacity, busy = self._read(name)
        window = now - state.last_sample_at
        utilization = 0.0
        if window > 0 and capacity > 0:
            utilization = (busy - state.last_busy_seconds) / (
                window * capacity
            )
        state.last_busy_seconds = busy
        state.last_sample_at = now
        if utilization >= HIGH_UTILIZATION or depth >= HIGH_QUEUE_DEPTH:
            state.consecutive_high += 1
            state.consecutive_low = 0
        elif utilization <= LOW_UTILIZATION and depth == 0:
            state.consecutive_low += 1
            state.consecutive_high = 0
        else:
            state.consecutive_high = 0
            state.consecutive_low = 0
        if now - state.last_scaled_at < COOLDOWN:
            return
        if (
            state.consecutive_high >= UP_CONSECUTIVE
            and capacity < MAX_CAPACITY
        ):
            target = min(
                MAX_CAPACITY,
                max(capacity + 1, math.ceil(capacity * FACTOR)),
            )
            self._scale(name, state, "up", capacity, target, utilization,
                        depth)
        elif (
            state.consecutive_low >= DOWN_CONSECUTIVE
            and capacity > state.floor
        ):
            target = max(state.floor, math.floor(capacity / FACTOR))
            self._scale(name, state, "down", capacity, target,
                        utilization, depth)

    def _scale(
        self,
        name: str,
        state: _PopState,
        direction: str,
        from_capacity: int,
        to_capacity: int,
        utilization: float,
        depth: int,
    ) -> None:
        governor = self.plane.pop_governors[name]
        governor.set_capacity(to_capacity)
        now = self.env.now
        state.last_scaled_at = now
        state.consecutive_high = 0
        state.consecutive_low = 0
        decision = ScaleDecision(
            at=now,
            node=name,
            direction=direction,
            from_capacity=from_capacity,
            to_capacity=to_capacity,
            utilization=utilization,
            queue_depth=depth,
        )
        self.decisions.append(decision)
        self.metrics.counter(f"overload.scale_{direction}s").inc()
        span = self.tracer.start(
            "overload.scale",
            now,
            node=name,
            tier="overload",
            direction=direction,
            from_capacity=from_capacity,
            to_capacity=to_capacity,
            utilization=round(utilization, 6),
            queue_depth=depth,
        )
        self.tracer.finish(span, now)
