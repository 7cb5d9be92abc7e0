"""Merged sharded runs against the serial run: what must agree.

Sharding preserves the workload exactly (every page view replays on
exactly one shard) but changes cross-user interleaving on shared
state — edge caches are no longer warmed by other shards' users, and
the shared network RNG stream is consumed per shard. So:

* workload-determined counts are **exactly** equal (page views, PLT
  observation counts, responses recorded, coherence reads checked);
* coherence and staleness **verdicts** are identical — zero Δ
  violations on both sides of every comparison here;
* PLT quantiles agree **statistically**: the merged quantile lands
  within a small rank band of the serial distribution (calibrated
  at ≤ 0.10 rank drift for the median across shards ∈ {2, 4, 8};
  asserted with headroom below), while the shards' histograms merge
  exactly: the merged one answers every percentile as one histogram
  fed all shards' values.
"""

import bisect

import pytest

from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.parallel import ShardedSimulationRunner, run_shard
from repro.sim.metrics import Histogram

SHARD_COUNTS = (2, 4, 8)


def _spec():
    return ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=60.0, seed=0)


@pytest.fixture(scope="module")
def serial(workload):
    catalog, users, trace = workload
    return SimulationRunner(_spec(), catalog, users, trace).run()


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def merged(request, workload):
    catalog, users, trace = workload
    return ShardedSimulationRunner(
        _spec(),
        catalog,
        users,
        trace,
        n_shards=request.param,
        workers=1,
    ).run()


def test_workload_counters_are_exact(serial, merged):
    assert merged.page_views == serial.page_views
    assert merged.plt.count == serial.plt.count
    assert sum(merged.served_by_layer.values()) == sum(
        serial.served_by_layer.values()
    )
    assert merged.reads_checked == serial.reads_checked
    assert merged.failed_responses == serial.failed_responses


def test_coherence_verdicts_are_identical(serial, merged):
    assert serial.delta_violations == 0
    assert merged.delta_violations == serial.delta_violations
    assert (merged.max_staleness == 0) == (serial.max_staleness == 0)


def test_merged_quantiles_track_serial_within_rank_band(serial, merged):
    values = sorted(serial.plt.values)
    for q, band in ((50, 0.15), (95, 0.04), (99, 0.02)):
        merged_value = merged.plt.percentile(q)
        rank = bisect.bisect_right(values, merged_value) / len(values)
        assert abs(rank - q / 100) <= band, (
            f"merged p{q}={merged_value:.4f} sits at serial rank "
            f"{rank:.3f}, outside ±{band} of {q / 100}"
        )


def test_histogram_merge_is_exact(workload):
    """Merging per-shard histograms equals one histogram over all
    values: raw values concatenate, so no percentile moves."""
    catalog, users, trace = workload
    runner = ShardedSimulationRunner(
        _spec(), catalog, users, trace, n_shards=4, workers=1
    )
    shards = [run_shard(task) for task in runner.tasks()]
    merged = Histogram("merged")
    direct = Histogram("direct")
    for shard in shards:
        shard_histogram = Histogram("shard")
        shard_histogram.extend(shard.plt.values)
        merged.merge(shard_histogram)
        direct.extend(shard.plt.values)
    assert merged.count == direct.count
    for q in (50, 95, 99):
        assert merged.percentile(q) == direct.percentile(q)
