"""What a run keeps: nothing per read, no reference cycle, and no
user's state past that user's last event.

Three gates on one rule — the request path allocates only what flows
downstream, a finished world is freed by reference counting the moment
its runner is dropped (DESIGN, *A finished world is garbage by
refcount*), and a user's client stack the moment that user's last
handler returns (DESIGN, *A user's state ends with the user*):

1. **No cycles.** A runner of any composition — the four perf
   workloads' and the staleness suite's — leaves no cyclic garbage
   once dropped: ``gc.collect()`` after ``del runner`` finds nothing.
2. **Nothing kept per read.** Doubling a trace's duration leaves the
   checkers' and the scrubbers' own containers the same size; the
   registry counts the reads and the span export holds them.
3. **Stacks retire.** On the four perf compositions every client
   stack dies, by refcount, when its user's last handler returns —
   during the replay — and none is left once the run is over.
"""

import gc
import random
import weakref
from dataclasses import replace

import pytest

from benchmarks.perf.workloads import WORKLOADS
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)
from tests.coherence.test_staleness_invariants import CONFIGS
from tests.harness.keeping import KeepingRunner


def world(duration, seed=3):
    catalog = generate_catalog(CatalogConfig(n_products=30), random.Random(seed))
    users = generate_users(
        UserPopulationConfig(n_users=12, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=duration,
        session_rate=0.1,
        mean_session_length=4.0,
        think_time_mean=8.0,
        write_rate=0.08,
        txn_mix=0.2,
        erase_fraction=0.3,
        access_rate=0.01,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


#: Every composition the gates cover, by name.
COMPOSITIONS = {
    **{f"perf:{name}": w.spec for name, w in WORKLOADS.items()},
    **{
        f"staleness:{name}": ScenarioSpec(Scenario.SPEED_KIT, delta=30.0, **knobs)
        for name, knobs in CONFIGS.items()
    },
}


def cyclic_garbage(spec, inputs):
    """Objects only the cycle collector frees once ``spec``'s finished
    runner is dropped (what the run itself left behind is collected
    first, so only the world's own cycles count)."""
    runner = SimulationRunner(replace(spec, seed=3), *inputs)
    runner.run()
    gc.collect()
    del runner
    return gc.collect()


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_a_dropped_runner_leaves_no_cycle(name):
    assert cyclic_garbage(COMPOSITIONS[name], world(240.0)) == 0


def own_sizes(obj):
    """``len`` of every sized attribute ``obj`` keeps (strings aside)."""
    return {
        name: len(value)
        for name, value in vars(obj).items()
        if hasattr(value, "__len__") and not isinstance(value, str)
    }


def kept_sizes(runner):
    scrubbers = [
        own_sizes(stack.worker.scrubber)
        for stack in runner.client_stacks().values()
        if stack.worker is not None
    ]
    assert scrubbers
    return {
        "checker": own_sizes(runner.checker),
        "baseline_checker": own_sizes(runner.baseline_checker),
        "scrubber": {
            name: max(sizes[name] for sizes in scrubbers)
            for name in scrubbers[0]
        },
    }


@pytest.mark.parametrize(
    "name", ["perf:hit-path", "perf:storm", "staleness:chaos-replicated"]
)
def test_doubling_the_trace_keeps_the_same_sizes(name):
    runs = []
    for duration in (300.0, 600.0):
        runner = KeepingRunner(
            replace(COMPOSITIONS[name], seed=3), *world(duration)
        )
        runner.run()
        runs.append(runner)
    short, long = runs
    reads = [run.checker.read_count + run.baseline_checker.read_count for run in runs]
    assert reads[0] > 100 and reads[1] > 1.5 * reads[0]
    assert long.checker.violations == short.checker.violations == []
    assert kept_sizes(long) == kept_sizes(short)


class WatchingRunner(SimulationRunner):
    """Notes when each retired client stack dies, and whether the
    replay was still running then."""

    def _build(self):
        super()._build()
        self.replaying = True
        #: user -> (instant retired, weak reference to the stack)
        self.watched = {}
        #: user -> (instant died, during the replay?)
        self.deaths = {}
        #: user -> how often it was retired (once: after its last event)
        self.retirements = {}

    def _retire(self, user_id):
        self.retirements[user_id] = self.retirements.get(user_id, 0) + 1
        stack = self._stacks.get(user_id)
        if stack is not None:

            def died(_, user_id=user_id):
                self.deaths[user_id] = (self.env.now, self.replaying)

            self.watched[user_id] = (self.env.now, weakref.ref(stack, died))
        super()._retire(user_id)

    def _finalize(self):
        self.replaying = False
        super()._finalize()


class HoardingRunner(WatchingRunner):
    """The mutant: retired stacks leave ``_stacks`` for a list."""

    def _retire(self, user_id):
        self.__dict__.setdefault("graveyard", []).append(
            self._stacks.get(user_id)
        )
        super()._retire(user_id)


def retirement_faults(runner_class, spec, inputs):
    """What is wrong with how a replay of ``spec`` retires stacks."""
    runner = runner_class(replace(spec, seed=3), *inputs)
    runner.run()
    faults = [f"live after the run: {user}" for user in runner._stacks]
    faults += [
        f"retired {count} times: {user}"
        for user, count in runner.retirements.items()
        if count > 1
    ]
    if len(runner.watched) < 2:
        faults.append(f"{len(runner.watched)} stacks retired")
    for user, (retired_at, _) in runner.watched.items():
        died = runner.deaths.get(user)
        if died is None:
            faults.append(f"never died: {user}")
        elif died != (retired_at, True):
            faults.append(f"died at {died}, retired at {retired_at}: {user}")
    return faults


PERF = sorted(name for name in COMPOSITIONS if name.startswith("perf:"))


@pytest.mark.parametrize("name", PERF)
def test_a_stack_dies_when_its_users_last_handler_returns(name):
    assert retirement_faults(WatchingRunner, COMPOSITIONS[name], world(240.0)) == []


def test_the_retirement_gate_trips_on_a_hoarded_stack():
    faults = retirement_faults(HoardingRunner, COMPOSITIONS[PERF[0]], world(240.0))
    assert faults and all(fault.startswith("never died") for fault in faults)
