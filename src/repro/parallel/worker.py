"""The per-shard unit of work and its process entry point.

A :class:`ShardTask` is everything a worker process needs to replay
one shard, and it is deliberately *plain data*: the scenario spec, the
catalog, the user population, and the shard's trace slice are all
picklable dataclasses. Live objects — environments, RNG streams,
fault injectors, tracers, backend instances — are never shipped across
the process boundary; :func:`run_shard` constructs the whole stack
inside the worker by handing the plain data to
:class:`~repro.harness.runner.SimulationRunner`, exactly as the serial
path does. What comes back is the shard's ``RunResult``, of which the
orchestrator folds the registry and the spans and reads nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.harness.results import RunResult
from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import ScenarioSpec
from repro.sim.rng import spawn_seed
from repro.workload.catalog import Catalog
from repro.workload.trace import WorkloadTrace
from repro.workload.users import UserPopulation

__all__ = ["ShardTask", "run_shard"]


@dataclass
class ShardTask:
    """One shard's replay, as a picklable payload."""

    index: int
    n_shards: int
    spec: ScenarioSpec
    catalog: Catalog
    users: UserPopulation
    trace: WorkloadTrace

    def shard_spec(self) -> ScenarioSpec:
        """The scenario spec this shard actually runs.

        With one shard the spec is untouched, so ``--shards 1``
        replays the exact serial event sequence bit for bit. With more,
        each shard reseeds via :func:`~repro.sim.rng.spawn_seed` — a
        keyed derivation from the root seed, so the result depends only
        on ``(seed, n_shards)``, never on worker count or scheduling.
        """
        if self.n_shards == 1:
            return self.spec
        return replace(
            self.spec, seed=spawn_seed(self.spec.seed, self.index)
        )


def run_shard(task: ShardTask) -> RunResult:
    """Process entry point: build the stack and replay one shard.

    Module-level (not a closure or method) so it imports cleanly under
    the ``spawn`` start method as well as ``fork``.
    """
    return SimulationRunner(
        task.shard_spec(), task.catalog, task.users, task.trace
    ).run()
