"""Event primitives for the simulation kernel.

Events follow a small state machine: *pending* → *triggered* →
*processed*. A triggered event carries either a value or an exception;
once the environment pops it off the queue, its callbacks run and any
process waiting on it is resumed (or has the exception thrown into it).
"""

from __future__ import annotations

from heapq import heappush
from math import inf as _INF
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.environment import Environment

PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts out *pending*. Calling :meth:`succeed` or
    :meth:`fail` triggers it and schedules it with the environment so
    that its callbacks run at the current simulated time.

    Slotted: millions of events churn through the kernel heap per run,
    and dropping the per-instance ``__dict__`` is a measurable share of
    both allocation time and peak memory. ``defused`` stays a slot so
    the documented ``event.defused = True`` opt-out keeps working.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        # ``Environment.schedule(self)`` inline: every process that
        # returns passes here, at the current instant.
        env = self.env
        heappush(env._queue, (env.now, env._seq, self))
        env._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process waiting on this event has ``exception`` thrown into
        it at its ``yield`` expression.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately so late waiters do not
            # deadlock (mirrors SimPy semantics).
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Kernel bookkeeping runs once per event, so this class and
    :class:`Process` fill :class:`Event`'s slots themselves rather than
    chaining ``super().__init__``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        # ``Environment.schedule`` inline: the same refusal of a
        # negative, NaN or infinite delay, the same sequence number.
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0: {delay}")
        heappush(env._queue, (env.now + delay, env._seq, self))
        env._seq += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (value = the generator's return value) or raises (the
    process fails with that exception, which propagates to waiters).

    A process starts inline: its first step runs inside the call that
    creates it, up to the first ``yield``, before that call returns. A
    generator that returns without yielding is therefore already
    triggered when ``env.process`` hands it back; one that fails in its
    first step hands its exception to its waiters (or to ``run()``, if
    nobody waits) exactly as a later failure would.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator) -> None:
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._generator = generator
        self._target: Optional[Event] = None
        self._resume(_START)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.sim.environment.Interrupt` into the process."""
        from repro.sim.environment import Interrupt

        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        wakeup = Event(self.env)
        wakeup.fail(Interrupt(cause))
        wakeup._add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as exc:
            self.succeed(exc.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._generator.close()
            self.fail(TypeError(f"process yielded a non-event: {next_event!r}"))
            return
        self._target = next_event
        callbacks = next_event.callbacks
        if callbacks is None:
            next_event._add_callback(self._resume)
        else:
            callbacks.append(self._resume)


class _Start:
    """What a process's first step resumes with: a plain ``send(None)``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class AllOf(Event):
    """Triggers when *all* given events have triggered."""

    __slots__ = ("_events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired: List[Event] = []
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event._add_callback(self._check)

    def _results(self) -> dict:
        return {event: event._value for event in self._fired}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired.append(event)
        if len(self._fired) == len(self._events):
            self.succeed(self._results())
