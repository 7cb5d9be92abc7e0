"""A wave of device hits costs the kernel nothing.

On a runner-built Speed Kit stack, a page-load wave whose resources the
service worker answers from its own cache runs to its end inside the
call that starts it: each fetch is a process that returns in its first
step, and the wave's ``gather`` is processed at once, so the wave adds
no kernel event. The committed mutant puts back the rule this replaced
— a finished process schedules a completion event, and its waiter
resumes when the loop pops it — and trips the gate.
"""

import random

import pytest

from repro.browser.page import PageLoadEngine, PageResource
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http import URL
from repro.sim import Environment, Event, Process
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    generate_catalog,
    generate_users,
)
from repro.workload.trace import PageView, WorkloadTrace

WAVE = ("/static/app.js", "/static/style.css", "/static/logo.png")


def _wave_loader():
    """Load the wave once on a fresh Speed Kit stack (filling the
    service worker's cache) and return a function that loads it again,
    answering ``(kernel events it took, responses)``."""
    catalog = generate_catalog(CatalogConfig(n_products=5), random.Random(0))
    users = generate_users(
        UserPopulationConfig(n_users=4, consent_fraction=1.0), random.Random(1)
    )
    user = users.users[0]
    trace = WorkloadTrace([PageView(at=0.0, user_id=user.user_id, page_kind="home")])
    runner = SimulationRunner(
        ScenarioSpec(Scenario.SPEED_KIT), catalog, users, trace
    )
    runner._build()
    fetcher = runner._stack_for(user).fetcher
    env = runner.env
    engine = PageLoadEngine(env, fetcher, tracer=runner.tracer)
    wave = [PageResource(URL.parse(path)) for path in WAVE]

    def load():
        before = env.steps
        process = env.process(engine._load_wave(wave, fetcher.request_headers))
        env.run()
        return env.steps - before, process.value

    events, responses = load()
    assert events > 0 and [r.served_by for r in responses] == ["origin"] * 3
    return load


def _hit_wave_events():
    load = _wave_loader()
    events, responses = load()
    assert all(r.served_by.startswith("sw:") for r in responses), responses
    return events


def _ticker_events():
    env = Environment()

    def ticker():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    return env.steps


def test_a_wave_of_device_hits_adds_no_kernel_event():
    assert _hit_wave_events() == 0


def _resume_then_schedule(self, event):
    """The mutant: ``Process._resume`` as it was before waiters were
    woken in place — a process that returns triggers its completion
    event through the queue."""
    self._target = None
    generator = self._generator
    while True:
        try:
            if event._ok:
                event = generator.send(event._value)
            else:
                event = generator.throw(event._value)
        except StopIteration as exc:
            self.succeed(exc.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            self.fail(exc)
            return
        assert isinstance(event, Event)
        if event.callbacks is not None:
            self._target = event
            event.callbacks.append(self._resume)
            return


@pytest.mark.parametrize("probe", [_hit_wave_events, _ticker_events])
def test_the_gate_trips_when_a_finished_process_schedules_its_completion(
    monkeypatch, probe
):
    honest = probe()
    monkeypatch.setattr(Process, "_resume", _resume_then_schedule)
    assert probe() > honest
