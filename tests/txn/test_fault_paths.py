"""Abort/retry fault paths: the degradation contract under failures.

A serializable transaction that cannot reach the origin's validation
endpoint (outage, open breaker, exhausted retry budget) must degrade
to the bounded-stale snapshot/delta rungs — and must *say so*: every
response of a degraded transaction carries ``X-Txn-Degraded`` and the
result is flagged. Serving below the requested floor without the mark
is the broken-promise bug class this file hunts.
"""

import pytest

from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http import Degraded, reason_of
from repro.http.messages import Status
from repro.http.url import URL
from repro.txn import DEGRADED_HEADER, ConsistencyLevel
from repro.txn.coordinator import VALIDATION_RETRIES
from repro.workload.trace import TxnRead

from tests.txn.conftest import SEED, drive, level_runner, txn_workload

pytestmark = pytest.mark.txn


@pytest.fixture(scope="module", params=["outage", "chaos"])
def faulted_runner(request):
    return level_runner(
        "serializable",
        fault_profile=PROFILES[request.param],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    )


class TestFaultedReplays:
    def test_faults_really_fired(self, faulted_runner):
        assert faulted_runner._faults.total_downtime("origin") > 0

    def test_degradations_happen_and_are_marked(self, faulted_runner):
        """Outage windows overlap some validations; those transactions
        degrade — explicitly, never silently."""
        assert faulted_runner.result.txn_silent_downgrades == 0
        for record in faulted_runner.txn_checker.records:
            if record.achieved < record.requested:
                assert record.degraded

    def test_no_invariant_violations_under_faults(self, faulted_runner):
        faulted_runner.txn_checker.assert_txn_consistent()

    def test_degraded_count_matches_checker(self, faulted_runner):
        marked = sum(
            1
            for record in faulted_runner.txn_checker.records
            if record.degraded
        )
        assert faulted_runner.result.txn_degraded == marked

    def test_retries_bounded_by_budget_under_faults(self, faulted_runner):
        assert (
            faulted_runner.result.txn_validation_retries
            <= faulted_runner.result.txns * VALIDATION_RETRIES
        )


@pytest.fixture(scope="module")
def outage_rig(outage_stack):
    """The warm and the dark transaction of :func:`outage_stack`."""
    return outage_stack[2:]


@pytest.fixture(scope="module")
def outage_stack():
    """A finished serializable run whose origin goes dark *after* the
    trace — so driven transactions hit a full outage deterministically.
    Returns the runner, the user, and the warm and dark transactions."""
    catalog, users, trace = txn_workload(seed=SEED + 7)
    spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=120.0,
        page_ttl=3600.0,
        seed=SEED + 7,
        consistency="serializable",
        outage=(trace.duration + 30.0, trace.duration + 10_000.0),
    )
    runner = SimulationRunner(spec, catalog, users, trace)
    runner.run()
    event = next(
        e for e in trace.events if isinstance(e, TxnRead)
    )
    user = runner.users.by_id(event.user_id)
    coordinator = runner._txn_coordinator_for(user)
    urls = [
        URL.parse(f"/api/products/{product_id}")
        for product_id in event.product_ids
    ]

    warm = drive(
        runner,
        lambda: coordinator.execute(urls, ConsistencyLevel.SERIALIZABLE),
    )

    def step_into_outage():
        yield runner.env.timeout(60.0)

    drive(runner, step_into_outage)
    dark = drive(
        runner,
        lambda: coordinator.execute(urls, ConsistencyLevel.SERIALIZABLE),
    )
    return runner, user, warm, dark


class TestDrivenOutage:
    def test_warm_txn_is_fully_serializable(self, outage_rig):
        warm, _ = outage_rig
        assert warm.achieved is ConsistencyLevel.SERIALIZABLE
        assert not warm.degraded
        assert warm.validated_at is not None

    def test_dark_txn_degrades_below_serializable(self, outage_rig):
        _, dark = outage_rig
        assert dark.achieved < ConsistencyLevel.SERIALIZABLE
        assert dark.degraded
        assert not dark.silently_downgraded

    def test_degraded_responses_carry_the_mark(self, outage_rig):
        """The contract: a served response below the requested floor
        names the level actually achieved."""
        _, dark = outage_rig
        marked = [
            read.response.headers.get(DEGRADED_HEADER)
            for read in dark.reads
        ]
        assert marked and all(
            value == dark.achieved.value for value in marked
        )

    def test_the_mark_is_on_the_reads_not_on_the_cached_copies(
        self, outage_stack
    ):
        """A downgrade builds marked variants of what was read. The
        worker's cache holds the very responses that were read (served
        by reference), and they must stay unmarked and servable — or
        the next, healthy, read of the key would come back degraded
        and be refused by every cache above it."""
        runner, user, _, dark = outage_stack
        worker = runner._stack_for(user).worker
        now = runner.env.now
        from_cache = 0
        for read in dark.reads:
            assert reason_of(read.response) is Degraded.TXN_DOWNGRADE
            entry = worker.cache.store.peek(read.response.url.cache_key)
            if entry is None or entry.response.body is not read.response.body:
                continue
            from_cache += 1
            assert reason_of(entry.response) is None
            assert DEGRADED_HEADER not in entry.response.headers
            again = worker.cache.serve_even_stale(read.response.url.cache_key, now)
            assert again.headers is entry.response.headers
            assert reason_of(again) is None
            assert again.version == read.response.version
        assert from_cache, "no read of the dark txn came from the worker cache"

    def test_dark_txn_still_served_from_bounded_stale_caches(
        self, outage_rig
    ):
        """Degradation is graceful: the cached reads still answer."""
        _, dark = outage_rig
        ok = [
            read
            for read in dark.reads
            if read.response.status == Status.OK
        ]
        assert ok, "outage txn returned no cached reads at all"

    def test_warm_responses_are_unmarked(self, outage_rig):
        warm, _ = outage_rig
        assert all(
            DEGRADED_HEADER not in read.response.headers
            for read in warm.reads
        )
