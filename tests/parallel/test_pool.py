"""The real worker pool (marked: spawns OS processes).

CI matrices that cannot fork reliably under the test runner set
``REPRO_PARALLEL_WORKERS=1``, which routes these runs through the
in-process path — same merged results by the determinism contract,
which is exactly what the unmarked tests already verify.
"""

import os

import pytest

from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.parallel import ShardedSimulationRunner, default_workers


def _pool_workers():
    override = os.environ.get("REPRO_PARALLEL_WORKERS")
    if override:  # empty string means unset (CI matrix default)
        return max(1, int(override))
    return 2


@pytest.mark.multiprocess
def test_pool_run_matches_in_process(workload):
    catalog, users, trace = workload
    spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=60.0)
    sequential = ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=4, workers=1
    ).run()
    pooled = ShardedSimulationRunner(
        spec, catalog, users, trace, n_shards=4, workers=_pool_workers()
    ).run()
    assert pooled.to_dict() == sequential.to_dict()
    assert pooled.plt.values == sequential.plt.values


def test_default_workers_honors_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "1")
    assert default_workers(8) == 1
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS")
    assert 1 <= default_workers(8) <= 8
    assert default_workers(1) == 1


@pytest.mark.parametrize("hostile", ["x", "0", "-3"])
def test_default_workers_refuses_all_but_a_positive_integer(
    monkeypatch, hostile
):
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", hostile)
    with pytest.raises(ValueError) as err:
        default_workers(8)
    assert "REPRO_PARALLEL_WORKERS" in str(err.value)
    assert repr(hostile) in str(err.value)
