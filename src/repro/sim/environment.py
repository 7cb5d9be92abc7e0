"""The simulation environment: clock plus event queue."""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional, Tuple

from repro.sim.events import Event, Gather, Process, Timeout


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
        #: Current simulated time in seconds. A plain attribute, read on
        #: every hop of the request path: only the kernel assigns it
        #: (``tests/test_layering.py`` holds every other module to that).
        self.now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._steps = 0

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
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now:
        the one way to make a :class:`Timeout`, in one frame."""
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0: {delay}")
        event = Timeout()
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event.delay = delay
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def gather(self, generators) -> Gather:
        """Start each of ``generators`` as a process, in order, and join
        them: one event whose value is their return values, in order."""
        return Gather(self, generators)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise StopSimulation("event queue is empty")
        self.now, _, event = heapq.heappop(self._queue)
        self._steps += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok and not getattr(event, "defused", False):
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
            if until < self.now:
                raise ValueError(
                    f"until={until} lies in the past (now={self.now})"
                )
            while self._queue and self._queue[0][0] <= until:
                self.step()
            self.now = float(until)
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
                self.now, _, event = pop(queue)
                steps += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif not event._ok and not getattr(event, "defused", False):
                    raise event.value
        finally:
            self._steps += steps
