"""Event primitives for the simulation kernel.

Events follow a small state machine: *pending* → *triggered* →
*processed*. A triggered event carries either a value or an exception;
once the environment pops it off the queue, its callbacks run and any
process waiting on it is resumed (or has the exception thrown into it).
A process or gather that finishes skips the queue and wakes its waiters.
"""

from __future__ import annotations

from heapq import heappush
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
        # ``Environment.schedule(self)`` inline, at the current instant.
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

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay, made only
    by ``Environment.timeout``, which fills the slots itself: no
    constructor frame (nor a ``__new__`` builtin call) per timeout."""

    __slots__ = ("delay",)
    __init__ = object.__init__

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (value = the generator's return value) or raises (the
    process fails with that exception, which propagates to waiters).

    A process starts inline: its first step runs inside the call that
    creates it, up to the first ``yield``, before that call returns. One
    that returns is processed at once and resumes its waiters in place,
    in order, so one that returns without yielding is already processed
    when ``env.process`` hands it back. A failure goes through the queue:
    one in the first step reaches its waiters (or ``run()``, if nobody
    waits) exactly as a later failure would.
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
        wakeup.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        # A trampoline: an event already processed resumes the generator
        # in this loop, not through a nested callback.
        self._target = None
        generator = self._generator
        while True:
            try:
                if event._ok:
                    event = generator.send(event._value)
                else:
                    event = generator.throw(event._value)
            except StopIteration as exc:
                self._value = exc.value
                break
            except BaseException as exc:  # noqa: BLE001 - propagated to waiters
                self.fail(exc)
                return
            if not isinstance(event, Event):
                generator.close()
                self.fail(TypeError(f"process yielded a non-event: {event!r}"))
                return
            callbacks = event.callbacks
            if callbacks is not None:
                self._target = event
                callbacks.append(self._resume)
                return
        # Finished: wake the waiters in place, outside the handler.
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)


class _Start:
    """What a process's first step resumes with: a plain ``send(None)``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Gather(Event):
    """The join ``Environment.gather`` makes: processed at once if every
    child returned in its first step, else the last child to return
    wakes its waiters in place. The first child failure fails it."""

    __slots__ = ("_processes", "_pending")

    def __init__(self, env: "Environment", generators: Iterable) -> None:
        self.env = env
        self._ok = True
        processes = [Process(env, generator) for generator in generators]
        pending = 0
        for process in processes:
            if process.callbacks is not None:
                process.callbacks.append(self._check)
                pending += 1
        if pending:
            self.callbacks = []
            self._value = PENDING
            self._processes = processes
            self._pending = pending
        else:
            self.callbacks = None
            self._value = [process._value for process in processes]

    def _check(self, process: Process) -> None:
        if self._value is not PENDING:
            return
        if not process._ok:
            self.fail(process._value)
            return
        self._pending -= 1
        if not self._pending:
            self._value = [process._value for process in self._processes]
            callbacks = self.callbacks
            self.callbacks = None
            for callback in callbacks:
                callback(self)
