"""The four benchmark workloads and how a seed becomes their inputs.

A workload is ``EPISODES`` independent episodes. An episode is one
world (catalog + users), one generated trace and the scenario spec it
is replayed under; episode ``i`` of ``--seed S`` is built from the
sub-seed ``S * EPISODES + i`` with the CLI's convention (catalog
``Random(s)``, users ``Random(s + 1)``, trace ``Random(s + 2)``,
``ScenarioSpec.seed = s``). Several short episodes instead of one long
trace because the driver compares runs made with *different* seeds:
session counts, outage-window placement and GDPR-request counts differ
from trace to trace, and pooling six of them keeps the seed-to-seed
spread of every metric inside its bound at the same host-time cost
(README, "Measured noise").

All workloads are closed loops by construction — a discrete-event
replay of a fixed trace — so the stated input size is the trace.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

from repro.faults import FaultProfile, RetryPolicy
from repro.harness import Scenario, ScenarioSpec
from repro.overload import OVERLOAD_PROFILES
from repro.storage import BackendSpec
from repro.workload import (
    Catalog,
    CatalogConfig,
    PageView,
    UserPopulation,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
    WorldSpec,
    dump_trace,
    load_trace,
)

#: Episodes per workload (see the module docstring).
EPISODES = 6

PERF_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    """One named workload: population, traffic mix and scenario."""

    name: str
    n_users: int
    traffic: WorkloadConfig
    spec: ScenarioSpec


@dataclass
class Episode:
    """The generated inputs the program under test receives."""

    spec: ScenarioSpec
    catalog: Catalog
    users: UserPopulation
    trace: WorkloadTrace

    @property
    def page_views(self) -> int:
        return sum(isinstance(e, PageView) for e in self.trace.events)


_SHOP_TRAFFIC = WorkloadConfig(
    duration=480.0,
    session_rate=1.0,
    mean_session_length=5.0,
    think_time_mean=10.0,
    write_rate=0.05,
)


WORKLOADS = {
    w.name: w
    for w in (
        # 4 of 5 responses never reach the origin: speedkit, browser,
        # cdn, sketch and http do most of the work.
        Workload("hit-path", 100, _SHOP_TRAFFIC, ScenarioSpec(Scenario.SPEED_KIT)),
        # The same traces with every cache bypassed: the workload on
        # which a cache-path optimisation must predict no change.
        Workload("miss-path", 100, _SHOP_TRAFFIC, ScenarioSpec(Scenario.NO_CACHE)),
        # The same traffic volume over 30x the clients, most seen once:
        # cold per-client stacks, topology and cache construction.
        Workload("population", 3000, _SHOP_TRAFFIC, ScenarioSpec(Scenario.SPEED_KIT)),
        # The same layers used differently: writes beside reads, error
        # and shed paths beside success paths, async storage beside
        # sync. load_multiplier stays 1: at 2 the full composition
        # yields a Δ violation (README, "First findings").
        Workload(
            "storm",
            100,
            replace(
                _SHOP_TRAFFIC,
                duration=300.0,
                session_rate=0.6,
                write_rate=2.0,
                txn_mix=0.2,
                erase_fraction=0.05,
                access_rate=0.005,
            ),
            ScenarioSpec(
                Scenario.SPEED_KIT,
                delta=30.0,
                backend=BackendSpec(kind="write-behind"),
                replicate_pops=True,
                n_regions=3,
                consistency="snapshot",
                fault_profile=FaultProfile.named("chaos"),
                stale_if_error=120.0,
                retry=RetryPolicy(budget=2.0),
                overload_profile=OVERLOAD_PROFILES["flash-crowd"],
                admission=True,
                load_multiplier=1.0,
            ),
        ),
    )
}


def build_episode(
    workload: Workload, seed: int, duration: Optional[float], tmp: Path
) -> Episode:
    """Generate one episode and round-trip it through a v2 trace file.

    The round trip is what ``--record``/``--replay`` users pay, and it
    makes the replayed inputs exactly what a recorded file would hold:
    the episode keeps the *loaded* trace and the world rebuilt from its
    header, not the generator's objects.
    """
    world = WorldSpec(
        catalog=CatalogConfig(n_products=60),
        users=UserPopulationConfig(n_users=workload.n_users, consent_fraction=1.0),
        seed=seed,
        catalog_seed=seed,
        users_seed=seed + 1,
    )
    traffic = workload.traffic
    if duration is not None:
        traffic = replace(traffic, duration=duration)
    catalog, users = world.build()
    generated = WorkloadGenerator(catalog, users, traffic).generate(
        random.Random(seed + 2)
    )
    path = tmp / f"{workload.name}-{seed}.jsonl"
    dump_trace(generated, path, world=world)
    trace = load_trace(path)
    catalog, users = trace.world.build()
    spec = replace(workload.spec, seed=trace.world.seed)
    return Episode(spec=spec, catalog=catalog, users=users, trace=trace)


def build_episodes(
    name: str, seed: int, duration: Optional[float] = None, count: int = EPISODES
) -> List[Episode]:
    """What ``--seed`` determines for one workload (its first ``count`` episodes).

    Trace files live in a scratch directory inside the benchmark's own
    directory (the benchmark may write only inside its checkout) and
    are gone when this returns.
    """
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=PERF_DIR, prefix=".tmp-") as tmp:
        return [
            build_episode(workload, seed * EPISODES + index, duration, Path(tmp))
            for index in range(count)
        ]
