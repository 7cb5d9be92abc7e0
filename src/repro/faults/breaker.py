"""Circuit breaker: stop routing through a PoP that keeps failing.

Classic three-state breaker, one state machine per named target
(edge PoP). *Closed*: traffic flows, consecutive failures are counted.
*Open*: after ``FAILURE_THRESHOLD`` consecutive failures the target is
bypassed (the transport falls back to origin pass-through) for
``COOLDOWN`` simulated seconds. *Half-open*: after the cooldown one
probe request is let through; success closes the breaker, failure
re-opens it for another cooldown.

The breaker never decides *what* the fallback is — the transport does
(pass-through to the origin); it only answers "may I route through
this target right now".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.metrics import MetricRegistry

#: Consecutive failures that open the breaker for a target.
FAILURE_THRESHOLD = 3
#: Simulated seconds an open breaker bypasses its target before the
#: half-open probe.
COOLDOWN = 30.0


@dataclass
class _TargetState:
    consecutive_failures: int = 0
    opened_at: Optional[float] = None
    probing: bool = False


class CircuitBreaker:
    """Per-target consecutive-failure breaker with half-open probes."""

    def __init__(self, metrics: Optional[MetricRegistry] = None) -> None:
        self.metrics = metrics or MetricRegistry()
        self._targets: Dict[str, _TargetState] = {}
        self.trips = 0

    def _state(self, name: str) -> _TargetState:
        state = self._targets.get(name)
        if state is None:
            state = self._targets[name] = _TargetState()
        return state

    def is_open(self, name: str, now: float) -> bool:
        """Whether the breaker currently blocks ``name`` (no probe due)."""
        state = self._state(name)
        if state.opened_at is None:
            return False
        return now - state.opened_at < COOLDOWN

    def allow(self, name: str, now: float) -> bool:
        """May a request route through ``name`` right now?

        While open, returns ``False``; once the cooldown elapses, lets
        exactly one probe through (half-open) until its outcome is
        recorded.
        """
        state = self._state(name)
        if state.opened_at is None:
            return True
        if now - state.opened_at < COOLDOWN:
            return False
        if state.probing:
            return False  # one probe at a time
        state.probing = True
        self.metrics.counter(f"breaker.{name}.probes").inc()
        return True

    def record_success(self, name: str) -> None:
        """The routed request succeeded: close and reset.

        Only a success that the breaker *routed* may close it: while
        open with no probe in flight, a stale success — e.g. a request
        admitted before the trip and released later by a queue drain
        burst — is ignored, otherwise the breaker would flap open/
        closed on every drained backlog.
        """
        state = self._state(name)
        if state.opened_at is not None and not state.probing:
            return
        state.consecutive_failures = 0
        state.probing = False
        if state.opened_at is not None:
            state.opened_at = None
            self.metrics.counter(f"breaker.{name}.closed").inc()

    def record_failure(self, name: str, now: float) -> None:
        """The routed request failed: count, trip, or re-open."""
        state = self._state(name)
        state.consecutive_failures += 1
        if state.opened_at is not None:
            # A failed half-open probe re-arms the cooldown.
            state.probing = False
            state.opened_at = now
            return
        if state.consecutive_failures >= FAILURE_THRESHOLD:
            state.opened_at = now
            state.probing = False
            self.trips += 1
            self.metrics.counter(f"breaker.{name}.opened").inc()
            self.metrics.counter("breaker.trips").inc()
