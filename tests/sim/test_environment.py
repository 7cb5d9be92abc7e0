"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(3.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [3.0]


def test_timeout_zero_runs_at_current_time():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 5.0, "b"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 9.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2.0)
        return "payload"

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == ["payload"]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_unwaited_failed_process_raises_at_step():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("unobserved")

    env.process(child(env))
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()


def test_manual_event_succeed():
    env = Environment()
    results = []
    gate = env.event()

    def waiter(env, gate):
        value = yield gate
        results.append((env.now, value))

    def opener(env, gate):
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter(env, gate))
    env.process(opener(env, gate))
    env.run()
    assert results == [(7.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)


def test_all_of_waits_for_everything():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(5.0, value="five")
        values = yield env.all_of([t1, t2])
        results.append((env.now, sorted(values.values())))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, ["five", "one"])]


def test_interrupt_wakes_process_early():
    env = Environment()
    results = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            results.append((env.now, exc.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert results == [(3.0, "wake up")]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()
    assert proc.triggered


def test_nested_processes_three_deep():
    env = Environment()
    trace = []

    def leaf(env):
        yield env.timeout(1.0)
        trace.append("leaf")
        return 1

    def middle(env):
        value = yield env.process(leaf(env))
        trace.append("middle")
        return value + 1

    def root(env):
        value = yield env.process(middle(env))
        trace.append("root")
        return value + 1

    proc = env.process(root(env))
    env.run()
    assert trace == ["leaf", "middle", "root"]
    assert proc.value == 3


# -- a process starts inline ------------------------------------------------


def test_first_step_runs_before_process_returns():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(("first", env.now))
        yield env.timeout(1.0)
        seen.append(("second", env.now))

    process = env.process(proc(env))
    assert seen == [("first", 0.0)]
    assert process.is_alive
    env.run()
    assert seen == [("first", 0.0), ("second", 1.0)]


def test_first_steps_run_in_creation_order():
    env = Environment()
    order = []

    def proc(env, tag):
        order.append(tag)
        yield env.timeout(0.0)
        order.append(tag.upper())

    def parent(env):
        for tag in "abc":
            env.process(proc(env, tag))
            order.append(f"made {tag}")
        yield env.timeout(0.0)

    env.process(parent(env))
    env.run()
    assert order == ["a", "made a", "b", "made b", "c", "made c", "A", "B", "C"]


def test_a_never_yielding_process_is_triggered_at_once():
    env = Environment()

    def immediate(value):
        return value
        yield  # pragma: no cover - makes this a generator

    results = []

    def parent(env):
        children = [env.process(immediate(n)) for n in (1, 2, 3)]
        assert all(child.triggered for child in children)
        done = yield env.all_of(children)
        results.append([done[child] for child in children])

    env.process(parent(env))
    env.run()
    assert results == [[1, 2, 3]]


def test_a_first_step_exception_reaches_its_waiter():
    env = Environment()
    caught = []

    def broken(env):
        raise RuntimeError("at once")
        yield  # pragma: no cover - makes this a generator

    def parent(env):
        child = env.process(broken(env))
        assert child.triggered and not child.ok
        try:
            yield child
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))

    env.process(parent(env))
    env.run()
    assert caught == [(0.0, "at once")]


def test_an_unwaited_first_step_exception_surfaces_from_run():
    env = Environment()

    def broken(env):
        raise RuntimeError("nobody waits")
        yield  # pragma: no cover - makes this a generator

    process = env.process(broken(env))
    assert process.triggered
    with pytest.raises(RuntimeError, match="nobody waits"):
        env.run()


def test_interrupt_after_a_first_step_yield():
    env = Environment()
    results = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            results.append((env.now, exc.cause))

    victim = env.process(sleeper(env))
    victim.interrupt("now")
    env.run()
    assert results == [(0.0, "now")]
    assert env.now == 100.0  # the abandoned timeout still drains


# -- time never runs backwards ------------------------------------------------


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
def test_a_delay_must_be_finite_and_non_negative(delay):
    env = Environment()
    with pytest.raises(ValueError, match="delay"):
        env.timeout(delay)
    with pytest.raises(ValueError, match="delay"):
        env.schedule(env.event(), delay=delay)
    env.run()
    assert env.steps == 0  # nothing was queued


def test_a_nan_delay_cannot_reorder_the_queue():
    """The heap stays ordered: the process asking for ``nan`` fails at
    its ``yield`` site; the others resume in time order."""
    env = Environment()
    resumed = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        resumed.append((tag, env.now))

    for tag, delay in (("a", 1.0), ("c", 2.0), ("d", 0.5)):
        env.process(proc(env, tag, delay))
    nan = env.process(proc(env, "b", float("nan")))
    assert not nan.ok
    nan.defused = True
    env.run()
    assert resumed == [("d", 0.5), ("a", 1.0), ("c", 2.0)]


@pytest.mark.parametrize("until", [float("nan"), float("inf"), -float("inf")])
def test_run_until_must_be_finite(until):
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError, match="until"):
        env.run(until=until)
    assert env.now == 0.0
