"""The simulation environment: clock plus event queue."""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional, Tuple

from repro.sim.events import AllOf, Event, Process, Timeout


_INF = math.inf


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties are broken by scheduling order (a monotonically increasing
    sequence number), which makes runs fully deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._steps = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Kernel events executed so far (the events/second numerator)."""
        return self._steps

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event to be processed after ``delay``.

        NaN fails the test below too (``nan < 0`` is false, so a plain
        sign check would let it in and break the heap order silently),
        and so does ``inf``: no caller waits for the end of time, and
        such an event would drag ``now`` there.
        """
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0: {delay}")
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Composite event: fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise StopSimulation("event queue is empty")
        self._now, _, event = heapq.heappop(self._queue)
        self._steps += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event.ok and not getattr(event, "defused", False):
            # A failed event nobody is waiting on would otherwise be
            # silently dropped; surface it so bugs cannot hide. Set
            # ``event.defused = True`` to opt out for a specific event.
            raise event.value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if no event falls on that instant, so back-to-back ``run``
        calls compose predictably.
        """
        if until is not None:
            if not math.isfinite(until):
                raise ValueError(f"until must be finite: {until}")
            if until < self._now:
                raise ValueError(
                    f"until={until} lies in the past (now={self._now})"
                )
            while self._queue and self._queue[0][0] <= until:
                self.step()
            self._now = float(until)
            return
        # Drain loop with the heap pop and callback dispatch inlined:
        # this is the kernel's innermost loop, and the per-event
        # ``step()`` call overhead is measurable at millions of events
        # (see tests/sim/test_hotpath.py for the pinned throughput).
        queue = self._queue
        pop = heapq.heappop
        steps = 0
        try:
            while queue:
                self._now, _, event = pop(queue)
                steps += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif not event.ok and not getattr(event, "defused", False):
                    raise event.value
        finally:
            self._steps += steps
