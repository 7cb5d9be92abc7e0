"""Sharded simulation: fan out shards to workers, merge exactly.

The orchestrator partitions the trace's users into ``n_shards``
independent sub-simulations (see :mod:`repro.parallel.partition`) and
replays each in its own simulation kernel — its own
:class:`~repro.sim.environment.Environment`, RNG streams, PoP set,
backend stack, and tracer. There is one merge: the shards' registries
fold with :meth:`~repro.sim.metrics.MetricRegistry.merge` (counters
sum, histograms concatenate raw values, quantile sketches bucket-merge),
their spans are renumbered into one trace, and the merged result is
:meth:`RunResult.over <repro.harness.results.RunResult.over>` the two —
built the way a serial run builds its own.

Determinism contract:

* ``n_shards=1`` bypasses sharding entirely and is **bit-identical**
  to :class:`~repro.harness.runner.SimulationRunner`.
* For ``n_shards>1`` each shard reseeds with
  :func:`~repro.sim.rng.spawn_seed`, and results are merged in shard
  index order — so the merged result is a pure function of
  ``(spec, trace, n_shards)`` and does not depend on ``workers``,
  pool scheduling, or completion order.
* What sharding changes: cross-user interleaving on shared stateful
  components (edge caches warmed by other users' traffic, the shared
  ``"network"`` RNG stream) differs from the serial schedule, so a
  sharded run is a *statistically equivalent* sample, not a byte
  replay, of the serial one. Workload-determined counts (page views,
  events replayed) and coherence verdicts are preserved exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import List, Optional

from repro.harness.results import RunResult
from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import ScenarioSpec
from repro.obs.export import merge_span_records
from repro.parallel.partition import partition_users, shard_trace
from repro.parallel.worker import ShardTask, run_shard
from repro.workload.catalog import Catalog
from repro.workload.trace import WorkloadTrace
from repro.workload.users import UserPopulation

__all__ = ["ShardedSimulationRunner", "default_workers"]

#: Environment override for the worker-pool size (CI sets it to 1 on
#: platforms where forking under the test runner is flaky).
_WORKERS_ENV = "REPRO_PARALLEL_WORKERS"


def default_workers(n_shards: int) -> int:
    """Pool size when the caller does not choose one. An override that
    is set (the empty string counts as unset) must be a positive
    integer; anything else is refused by name, not guessed."""
    override = os.environ.get(_WORKERS_ENV)
    if not override:
        return max(1, min(n_shards, os.cpu_count() or 1))
    if not override.isdecimal() or int(override) < 1:
        raise ValueError(
            f"{_WORKERS_ENV} must be a positive integer: {override!r}"
        )
    return int(override)


class ShardedSimulationRunner:
    """Replays a trace across ``n_shards`` parallel simulation kernels.

    ``workers`` bounds the process pool; ``workers=1`` runs every
    shard sequentially in this process (same results, no pool) — the
    merged output never depends on it.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        catalog: Catalog,
        users: UserPopulation,
        trace: WorkloadTrace,
        n_shards: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.spec = spec
        self.catalog = catalog
        self.users = users
        self.trace = trace
        self.n_shards = n_shards
        self.workers = (
            workers if workers is not None else default_workers(n_shards)
        )

    # -- payload -----------------------------------------------------------

    def tasks(self) -> List[ShardTask]:
        """The plain-data payloads the workers receive (index order)."""
        shards = partition_users(
            sorted(self.trace.users_seen()), self.n_shards
        )
        return [
            ShardTask(
                index=index,
                n_shards=self.n_shards,
                spec=self.spec,
                catalog=self.catalog,
                users=self.users,
                trace=shard_trace(self.trace, owned),
            )
            for index, owned in enumerate(shards)
        ]

    # -- execution ---------------------------------------------------------

    def run(self) -> RunResult:
        """Replay all shards and return the exact-merged result."""
        if self.n_shards == 1:
            # The serial path, untouched: same seed, same kernel, same
            # event sequence — bit-identical to SimulationRunner.
            return SimulationRunner(
                self.spec, self.catalog, self.users, self.trace
            ).run()
        started = time.perf_counter()
        tasks = self.tasks()
        if self.workers <= 1:
            shards = [run_shard(task) for task in tasks]
        else:
            shards = self._run_pool(tasks)
        merged = self._merge(shards)
        # End-to-end elapsed time, not the shards' summed CPU time:
        # events_per_second then reports the aggregate throughput the
        # parallel run actually achieved.
        merged.wall_seconds = time.perf_counter() - started
        return merged

    def _run_pool(self, tasks: List[ShardTask]) -> List[RunResult]:
        # ``fork`` inherits the imported modules and skips re-pickling
        # the interpreter state; ``spawn`` (the only option on some
        # platforms) works because ShardTask is plain picklable data
        # and run_shard is an importable module-level function.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        processes = min(self.workers, len(tasks))
        with context.Pool(processes=processes) as pool:
            return pool.map(run_shard, tasks)

    @staticmethod
    def _merge(shards: List[RunResult]) -> RunResult:
        """Fold the shards' registries and spans in task order and
        restate the result over them."""
        metrics = shards[0].metrics
        for shard in shards[1:]:
            metrics.merge(shard.metrics)
        traces = [shard.trace_records for shard in shards]
        records = None if traces[0] is None else merge_span_records(traces)
        return RunResult.over(shards[0].scenario_name, metrics, records)
