"""The property suite: the goodput contract under deep overload.

Randomized-but-seeded flash-crowd schedules replay through the full
stack — synchronous remote storage, write-behind drains, replicated
PoPs, fault injection — at 10x (and once at 50x) offered load with
admission control on, and every run is checked for the contract the
overload control plane promises:

a. **Marked, never cached.** Every shed request resolves to exactly
   one response carrying ``X-Load-Shed``, and no cache tier — edge
   PoP, service-worker cache, or browser cache — ever holds one.
b. **Priority order.** Sheds respect class priorities: a static
   request is shed only at full queue depth, a personalized one only
   at its (smaller) class limit, and control traffic never.
c. **Control immunity.** Invalidation purges, GDPR erasure and
   access walks ride control tickets: zero shed, all accounted.
d. **Coherence survives saturation.** The Δ bound (widened by the
   profile's modeled queue-delay bound) holds with zero violations,
   and per-client reads stay monotonic — even at 50x.
e. **Sharding is conservative.** ``--shards N`` preserves the
   workload exactly, conserves offered = admitted + shed on every
   shard and in the merge, keeps governor-side and response-side shed
   accounting equal, and a 1-shard run reproduces the serial ledger
   verbatim.
"""

import pytest

from repro.coherence import version_regressions
from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.obs import reads_from_trace
from repro.obs.export import span_records
from repro.overload import OVERLOAD_PROFILES
from repro.overload.priority import LOAD_SHED_HEADER
from repro.parallel import ShardedSimulationRunner, run_shard
from repro.storage import BackendSpec
from tests.coherence.test_staleness_invariants import mutate_delta_term
from tests.harness.keeping import KeepingRunner, private_tiers

pytestmark = pytest.mark.overload

PROFILE = OVERLOAD_PROFILES["flash-crowd"]

CONFIGS = {
    "sync": dict(),
    "write-behind": dict(backend=BackendSpec(kind="write-behind")),
    "replicated": dict(replicate_pops=True, n_regions=3),
    "faulted": dict(
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
}

_RUNS = {}


def _spec(config, multiplier=10.0, **overrides):
    kwargs = dict(
        scenario=Scenario.SPEED_KIT,
        seed=11,
        overload_profile=PROFILE,
        load_multiplier=multiplier,
        admission=True,
        trace_requests=True,
    )
    kwargs.update(CONFIGS[config])
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def run_config(workload, config, multiplier=10.0):
    key = (config, multiplier)
    cached = _RUNS.get(key)
    if cached is not None:
        return cached
    catalog, users, trace = workload
    runner = KeepingRunner(
        _spec(config, multiplier), catalog, users, trace
    )
    runner.run()
    _RUNS[key] = runner
    return runner


@pytest.fixture(params=sorted(CONFIGS))
def runner(request, workload):
    return run_config(workload, request.param)


@pytest.fixture(scope="module")
def crushed(workload):
    """The 50x run: the deepest saturation the suite checks."""
    return run_config(workload, "sync", 50.0)


def all_cache_stores(runner):
    """(tier label, store) for every cache tier in the run, the device
    caches of retired client stacks included."""
    tiers = runner.client_cache_stores()
    if runner.spec.scenario.uses_cdn:
        for name, pop in runner.cdn.pops.items():
            tiers[f"edge:{name}"] = pop.store
    return tiers


def stored_responses(store):
    for key in store.keys():
        entry = store.get(key, float("inf"))
        if entry is None:
            entry = store.backend.get(key)
        if entry is not None:
            yield entry.response


def covered_reads(runner):
    """The Δ-covered reads of the run's span export (the checker keeps
    counts and violations, not the reads)."""
    reads = reads_from_trace(runner.result.trace_records)
    covered = [read for read in reads if read["covered"]]
    assert len(covered) > 100
    return covered


def shed_spans(runner):
    return [
        record
        for record in span_records(runner.tracer.spans)
        if record.get("name") == "overload.shed"
    ]


class TestSchedulesAreNotVacuous:
    def test_overload_really_happened(self, runner):
        assert runner.result.shed_requests > 100
        assert runner.result.queued_requests > 0
        assert runner.result.queue_depth_peak > 0

    def test_the_run_still_served_pages(self, runner):
        assert runner.result.goodput_pages > 0
        assert runner.result.page_views > 400


class TestMarkedNeverCached:
    def test_shed_accounting_matches_one_to_one(self, runner):
        """Every governor-side shed produced exactly one marked
        response at the client — nothing vanished, nothing doubled."""
        assert runner.result.shed_requests == runner.result.shed_responses

    def test_no_cache_tier_holds_a_shed_response(self, runner):
        scanned = 0
        tiers = all_cache_stores(runner)
        assert private_tiers(tiers)
        for label, store in tiers.items():
            for response in stored_responses(store):
                scanned += 1
                assert response.headers.get(LOAD_SHED_HEADER) is None, (
                    f"cache tier {label} admitted a shed response"
                )
        assert scanned > 0  # the scan itself must not be vacuous

    def test_shed_responses_carry_no_version(self, runner):
        """A shed response asserts nothing about content, so it must
        never enter the coherence ledger as a read."""
        records = span_records(runner.tracer.spans)
        for record in records:
            attrs = record.get("attrs", {})
            for item in attrs.get("responses", []):
                if item.get("shed"):
                    assert item.get("version") is None
            if attrs.get("shed"):
                assert attrs.get("version") is None


class TestPriorityOrder:
    def test_static_sheds_only_at_full_depth(self, runner):
        for span in shed_spans(runner):
            attrs = span["attrs"]
            if attrs["cls"] == "static":
                assert attrs["depth"] >= PROFILE.queue_limit

    def test_personalized_sheds_at_its_class_limit(self, runner):
        for span in shed_spans(runner):
            attrs = span["attrs"]
            if attrs["cls"] == "personalized":
                assert (
                    attrs["depth"] >= PROFILE.personalized_queue_limit
                )

    def test_personalization_degrades_first(self, runner):
        shed = runner.result.shed_by_class
        assert shed.get("personalized", 0) > 0
        # The smaller class limit means personalized sheds can never
        # be outnumbered... by a static-only shed pattern appearing
        # without personalized pressure at the same nodes.
        assert shed.get("personalized", 0) >= shed.get("static", 0) or (
            shed.get("static", 0) == 0
        )

    def test_control_is_never_shed(self, runner):
        assert runner.result.shed_by_class.get("control", 0) == 0
        for span in shed_spans(runner):
            assert span["attrs"]["cls"] != "control"


class TestControlImmunity:
    def test_invalidation_and_gdpr_ride_control_tickets(self, runner):
        assert runner.result.control_events > 0
        counter = runner.metrics.get_counter("overload.control.invalidation")
        assert counter is not None and counter.value > 0

    def test_purges_still_process_under_overload(self, runner):
        assert (
            runner.metrics.counter("invalidation.processed").value > 0
        )


class TestCoherenceSurvivesSaturation:
    def test_zero_delta_violations(self, runner):
        runner.checker.assert_delta_atomic()
        assert runner.result.delta_violations == 0

    def test_bound_is_finite_with_admission_on(self, runner):
        assert runner.checker.delta < float("inf")

    def test_reads_are_monotonic_per_client_and_key(self, runner):
        assert version_regressions(covered_reads(runner)) == []

    @pytest.mark.parametrize("config", ["sync", "replicated"])
    def test_a_bound_without_queue_delay_is_caught(
        self, workload, monkeypatch, config
    ):
        """Teeth for ``test_zero_delta_violations``: a response that
        waited in a governor queue is staler than the bound allows
        unless the ``queue_delay`` term covers the wait."""
        mutate_delta_term(monkeypatch, "queue_delay")
        catalog, users, trace = workload
        runner = SimulationRunner(
            _spec(config, trace_requests=False), catalog, users, trace
        )
        runner.run()
        with pytest.raises(AssertionError, match="violated"):
            runner.checker.assert_delta_atomic()

    def test_invariants_hold_at_fifty_x(self, crushed):
        assert crushed.result.shed_requests > 0
        crushed.checker.assert_delta_atomic()
        assert version_regressions(covered_reads(crushed)) == []
        assert crushed.result.shed_requests == crushed.result.shed_responses
        assert crushed.result.shed_by_class.get("control", 0) == 0


class TestShardingConservation:
    @pytest.fixture(scope="class", params=(2, 4))
    def sharded(self, request, workload):
        catalog, users, trace = workload
        spec = _spec("sync", trace_requests=False)
        runner = ShardedSimulationRunner(
            spec, catalog, users, trace, n_shards=request.param, workers=1
        )
        results = [run_shard(task) for task in runner.tasks()]
        # The merge folds shard 0's registry in place, so snapshot each
        # shard's ledger first.
        fields = (
            "offered_requests",
            "admitted_requests",
            "queued_requests",
            "shed_requests",
            "shed_responses",
            "goodput_pages",
            "queue_depth_peak",
            "control_events",
        )
        shards = [
            {field: getattr(result, field) for field in fields}
            for result in results
        ]
        return shards, ShardedSimulationRunner._merge(results)

    @pytest.fixture(scope="class")
    def serial(self, workload):
        catalog, users, trace = workload
        spec = _spec("sync", trace_requests=False)
        return SimulationRunner(spec, catalog, users, trace).run()

    def test_workload_is_exact(self, serial, sharded):
        _, merged = sharded
        assert merged.page_views == serial.page_views

    def test_every_shard_conserves_offered(self, sharded):
        shards, _ = sharded
        for shard in shards:
            assert shard["offered_requests"] == (
                shard["admitted_requests"] + shard["shed_requests"]
            )
            assert shard["shed_requests"] == shard["shed_responses"]

    def test_merge_is_the_sum_of_shards(self, sharded):
        shards, merged = sharded
        for field in (
            "offered_requests",
            "admitted_requests",
            "queued_requests",
            "shed_requests",
            "shed_responses",
            "goodput_pages",
            "control_events",
        ):
            assert getattr(merged, field) == sum(
                shard[field] for shard in shards
            )
        assert merged.queue_depth_peak == max(
            shard["queue_depth_peak"] for shard in shards
        )

    def test_merged_run_is_coherent(self, sharded):
        _, merged = sharded
        assert merged.delta_violations == 0
        assert merged.shed_by_class.get("control", 0) == 0

    def test_one_shard_reproduces_the_serial_ledger(self, serial, workload):
        catalog, users, trace = workload
        spec = _spec("sync", trace_requests=False)
        merged = ShardedSimulationRunner(
            spec, catalog, users, trace, n_shards=1, workers=1
        ).run()
        for field in (
            "offered_requests",
            "admitted_requests",
            "queued_requests",
            "shed_requests",
            "shed_responses",
            "goodput_pages",
            "queue_depth_peak",
            "control_events",
            "shed_by_class",
        ):
            assert getattr(merged, field) == getattr(serial, field)
