"""Property-style multi-key consistency invariants across configs.

Randomized (seeded-RNG) multi-key read schedules replay through the
full Speed Kit stack under every asynchronous-propagation
configuration of the staleness suite — synchronous remote storage,
batched pipelining, write-behind drains, async PoP replication, fault
injection, combinations, and the sharded parallel kernel — at each
rung of the consistency ladder. Ground truth must confirm:

1. **No fractured reads** at ``snapshot`` and above: the returned
   versions of every transaction coexisted at some origin instant.
2. **Origin-order agreement** at ``serializable``: the validation
   instant sees exactly the returned versions.
3. **No silent downgrades** anywhere: achieving less than requested
   always carries the degradation mark.

Plus the metamorphic ladder-containment checks: a transaction valid
at a stronger rung is valid at every weaker one — serializable results
re-judged as snapshots stay fracture-free, and snapshot reads ingested
by the per-key Δ checker stay within the Δ bound.

The schedules are deterministic per seed, so failures reproduce.
"""

import random
from collections import Counter

import pytest

from repro.coherence.txn import TxnConsistencyChecker
from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.storage import BackendSpec
from repro.txn import ConsistencyLevel
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

pytestmark = pytest.mark.txn

SEEDS = (3, 11)

LEVELS = ("delta", "snapshot", "serializable")

CONFIGS = {
    "sync-remote": dict(backend=BackendSpec(kind="remote")),
    "batched-overlap": dict(
        backend=BackendSpec(kind="batched", overlap=True)
    ),
    "write-behind": dict(backend=BackendSpec(kind="write-behind")),
    "replicated": dict(replicate_pops=True, n_regions=3),
    "faulted": dict(
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
    "chaos-replicated": dict(
        fault_profile=PROFILES["chaos"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
        replicate_pops=True,
        n_regions=3,
    ),
}

_RUNS = {}


def _workload(seed):
    catalog = generate_catalog(
        CatalogConfig(n_products=25), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=10, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=480.0,
        session_rate=0.1,
        mean_session_length=4.0,
        think_time_mean=8.0,
        write_rate=0.1,
        txn_mix=0.4,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def _spec(config, level, seed):
    return ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        consistency=level,
        **CONFIGS[config],
    )


def run_config(config, level, seed):
    """One (config, level, seed) replay, cached — the live runner."""
    cached = _RUNS.get((config, level, seed))
    if cached is not None:
        return cached
    catalog, users, trace = _workload(seed)
    runner = SimulationRunner(
        _spec(config, level, seed), catalog, users, trace
    )
    runner.run()
    _RUNS[(config, level, seed)] = runner
    return runner


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return request.param


@pytest.fixture(params=LEVELS)
def level(request):
    return request.param


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def runner(request, config, level):
    return run_config(config, level, request.param)


class TestLadderInvariants:
    def test_schedule_exercises_the_checker(self, runner):
        """Guard against vacuous passes: transactions ran, and the
        workload churned versions underneath them."""
        assert runner.txn_checker.txn_count > 30
        assert runner.metrics.counter("invalidation.processed").value > 0

    def test_no_fractured_reads_at_achieved_level(self, runner):
        runner.txn_checker.assert_txn_consistent()

    def test_zero_counts_surface_in_the_result(self, runner):
        assert runner.result.txn_fractured_reads == 0
        assert runner.result.txn_serialization_violations == 0
        assert runner.result.txn_silent_downgrades == 0

    def test_per_key_delta_suite_still_clean(self, runner):
        """Adding transactions must not disturb the Δ guarantee the
        rest of the suite rests on."""
        runner.checker.assert_delta_atomic()

    def test_serializable_txns_agree_with_origin_order(self, runner):
        """Re-derive the serializable verdict from ground truth: every
        validated transaction's versions are exactly the ones current
        at its validation instant."""
        versions = runner.server.versions
        for record in runner.txn_checker.records:
            if record.achieved is not ConsistencyLevel.SERIALIZABLE:
                continue
            if record.degraded or record.validated_at is None:
                continue
            for version_key, version, _read_at in record.reads:
                assert (
                    versions.version_at(version_key, record.validated_at)
                    == version
                )


class TestMetamorphicLadder:
    """Containment: valid at a stronger rung → valid at every weaker
    one. Re-judge each run's records one rung down and require the
    weaker checker to agree there is nothing wrong."""

    def test_serializable_records_are_valid_snapshots(self, config):
        for seed in SEEDS:
            runner = run_config(config, "serializable", seed)
            rejudged = TxnConsistencyChecker(runner.server)
            for record in runner.txn_checker.records:
                if record.achieved < ConsistencyLevel.SERIALIZABLE:
                    continue
                rejudged.record_txn(
                    requested=ConsistencyLevel.SNAPSHOT,
                    achieved=ConsistencyLevel.SNAPSHOT,
                    degraded=False,
                    reads=record.reads,
                    validated_at=None,
                    finished_at=record.finished_at,
                    client=record.client,
                )
            assert rejudged.fractured_count == 0

    def test_snapshot_records_have_delta_valid_reads(self, config):
        """Snapshot ⊆ valid per-key-Δ: every read of every
        snapshot-certified transaction is, by ground truth, within the
        per-key Δ bound and among the reads the Δ checker observed (its
        staleness histogram holds each one). The one way out is an
        offline serving, which trades the bound for availability and
        is accounted, never judged: such a read is beyond the bound
        *and* absent from the checker's log."""
        judged = 0
        for seed in SEEDS:
            runner = run_config(config, "snapshot", seed)
            versions = runner.server.versions
            logged = Counter(
                runner.metrics.histogram("coherence.staleness").values
            )
            within, beyond = Counter(), Counter()
            for record in runner.txn_checker.records:
                if record.achieved < ConsistencyLevel.SNAPSHOT:
                    continue
                for version_key, version, read_at in record.reads:
                    superseded = versions.superseded_at(version_key, version)
                    staleness = 0.0
                    if superseded is not None and superseded < read_at:
                        staleness = read_at - superseded
                    bound = runner.checker.delta
                    (within if staleness <= bound else beyond)[staleness] += 1
            assert not within - logged
            assert not beyond & logged
            judged += sum(within.values())
        assert judged > 100

    def test_requested_levels_are_honored_or_marked(self, runner):
        for record in runner.txn_checker.records:
            assert record.achieved >= record.requested or record.degraded


class TestShardedKernel:
    """The sharded parallel kernel preserves the ladder verdicts under
    the documented merge contract: workload-determined counts (one
    transaction per trace event) are exactly equal, and every
    invariant verdict is identical — zero violations on both sides.
    Cache-state-dependent counts (refetches, aborts) legitimately
    drift, because a shard's edge caches are only warmed by its own
    users; they must still merge as plain sums and stay in-family."""

    @pytest.fixture(params=LEVELS)
    def pair(self, request):
        from repro.parallel import ShardedSimulationRunner

        level = request.param
        seed = SEEDS[0]
        catalog, users, trace = _workload(seed)
        spec = _spec("sync-remote", level, seed)
        serial = run_config("sync-remote", level, seed).result
        sharded = ShardedSimulationRunner(
            spec, catalog, users, trace, n_shards=3, workers=1
        ).run()
        return serial, sharded

    def test_workload_counts_are_exact(self, pair):
        serial, sharded = pair
        assert sharded.txns == serial.txns
        assert sharded.txns > 30

    def test_verdicts_are_identical_and_clean(self, pair):
        serial, sharded = pair
        for result in (serial, sharded):
            assert result.txn_fractured_reads == 0
            assert result.txn_serialization_violations == 0
            assert result.txn_silent_downgrades == 0

    def test_behavioral_counts_stay_in_family(self, pair):
        """Refetch/abort totals are cache-state-dependent, but every
        certified transaction still lands: sums merge without loss and
        sit within the serial run's regime (same order of magnitude,
        bounded by the retry budget)."""
        serial, sharded = pair
        limit = _spec("sync-remote", "snapshot", SEEDS[0]).txn_retry_limit
        assert sharded.txn_validation_retries <= sharded.txns * limit
        assert sharded.txn_aborts <= sharded.txns * limit
        if serial.txn_refetches == 0:
            assert sharded.txn_refetches == 0
        else:
            ratio = sharded.txn_refetches / serial.txn_refetches
            assert 0.5 <= ratio <= 2.0
