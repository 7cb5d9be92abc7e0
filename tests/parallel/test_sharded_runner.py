"""The orchestrator's determinism contract."""

import pytest

from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.parallel import ShardedSimulationRunner
from repro.sim.rng import spawn_seed


def _spec(**kwargs):
    kwargs.setdefault("scenario", Scenario.SPEED_KIT)
    kwargs.setdefault("delta", 60.0)
    return ScenarioSpec(**kwargs)


def test_one_shard_is_bit_identical_to_serial(workload):
    catalog, users, trace = workload
    serial = SimulationRunner(_spec(), catalog, users, trace).run()
    sharded = ShardedSimulationRunner(
        _spec(), catalog, users, trace, n_shards=1
    ).run()
    assert sharded.to_dict() == serial.to_dict()
    # Down to the raw PLT observations, in order.
    assert sharded.plt.values == serial.plt.values
    assert sharded.n_shards == 1


def test_results_do_not_depend_on_worker_count(workload):
    catalog, users, trace = workload
    by_workers = [
        ShardedSimulationRunner(
            _spec(), catalog, users, trace, n_shards=3, workers=workers
        ).run()
        for workers in (1, 2)
    ]
    assert by_workers[0].to_dict() == by_workers[1].to_dict()
    assert by_workers[0].plt.values == by_workers[1].plt.values


def test_shards_reseed_via_spawn(workload):
    catalog, users, trace = workload
    runner = ShardedSimulationRunner(
        _spec(seed=99), catalog, users, trace, n_shards=3
    )
    tasks = runner.tasks()
    assert [task.index for task in tasks] == [0, 1, 2]
    seeds = [task.shard_spec().seed for task in tasks]
    assert seeds == [spawn_seed(99, 0), spawn_seed(99, 1), spawn_seed(99, 2)]
    assert len(set(seeds)) == 3
    assert 99 not in seeds


def test_single_shard_task_keeps_root_seed(workload):
    catalog, users, trace = workload
    (task,) = ShardedSimulationRunner(
        _spec(seed=5), catalog, users, trace, n_shards=1
    ).tasks()
    assert task.shard_spec().seed == 5


def test_merged_result_counts_shards_and_throughput(workload):
    catalog, users, trace = workload
    result = ShardedSimulationRunner(
        _spec(), catalog, users, trace, n_shards=3, workers=1
    ).run()
    assert result.n_shards == 3
    assert result.kernel_events > 0
    assert result.wall_seconds > 0
    assert result.events_per_second() > 0
    record = result.to_dict()
    assert record["n_shards"] == 3
    assert record["kernel_events"] == result.kernel_events


def test_rejects_bad_shard_and_worker_counts(workload):
    catalog, users, trace = workload
    with pytest.raises(ValueError):
        ShardedSimulationRunner(
            _spec(), catalog, users, trace, n_shards=0
        )
    with pytest.raises(ValueError):
        ShardedSimulationRunner(
            _spec(), catalog, users, trace, n_shards=2, workers=0
        )
