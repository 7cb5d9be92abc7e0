"""The result ledger: one source per field, and one merge.

Four guards on ``RunResult``:

* a field declared without rules cannot exist, and the exported key set
  and the unexported field set are frozen — the benchmark's
  ``sim_digest`` hashes ``to_dict()``, so a drifting key would silently
  re-baseline every digest;
* every field names where in the registry it is read from (a counter,
  a histogram's peak, histograms' observation counts) or is a stamp
  that says why not — nothing keeps a second book;
* two real shards of a storm-style run, folded by the sharded runner,
  come to exactly what a fold written here, from the two shards'
  exports directly, says they should — and the merged result is
  ``RunResult.over`` its own registry and spans, like any serial one;
* on real runs the restated extrema, counts and tier attribution equal
  the reference implementations that still compute them the long way.
"""

import copy
import dataclasses
import random

import pytest

from repro.faults import FaultProfile, RetryPolicy
from repro.harness.results import RunResult, ledger
from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.obs import (
    reads_from_trace,
    span_records,
    tier_breakdown,
    txns_from_trace,
)
from repro.overload import OVERLOAD_PROFILES
from repro.parallel import ShardedSimulationRunner, run_shard
from repro.sim.metrics import MetricRegistry
from repro.storage import BackendSpec
from repro.workload.catalog import CatalogConfig, generate_catalog
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.users import UserPopulationConfig, generate_users

SOURCES = ("counter", "peak", "observations")


def _result(**values) -> RunResult:
    metrics = MetricRegistry()
    return RunResult(
        scenario_name=values.pop("scenario_name", "speed-kit"),
        metrics=metrics,
        plt=metrics.histogram("plt.all"),
        **values,
    )


def test_a_field_without_a_rule_fails_at_class_creation():
    with pytest.raises(TypeError, match="bytes_wasted"):

        @dataclasses.dataclass
        class Forgetful(RunResult):
            bytes_wasted: int = 0

    with pytest.raises(TypeError, match="bytes_wasted"):

        class Bare(RunResult):
            bytes_wasted: int = dataclasses.field(default=0)

    @dataclasses.dataclass
    class Declared(RunResult):
        bytes_wasted: int = ledger(0, counter="bytes.wasted")

    metrics = MetricRegistry()
    metrics.counter("bytes.wasted").inc(7)
    assert Declared.over("x", metrics).to_dict()["bytes_wasted"] == 7


# -- the frozen export surface --------------------------------------------

EXPORTED_KEYS = frozenset(
    """
    scenario served_by_layer served_by_kind served_degraded_by_layer
    reads_checked stale_reads delta_violations max_staleness
    uncovered_max_staleness sketch_fetches sketch_bytes requests_scrubbed
    origin_requests page_views failed_responses origin_egress_bytes
    edge_egress_bytes erasures accesses erasure_removed erasure_residuals
    erasure_replicas_dropped erasure_queued_scrubbed spans_scrubbed txns
    txn_aborts txn_validation_retries txn_refetches txn_degraded
    txn_erase_conflicts txn_fractured_reads txn_serialization_violations
    txn_silent_downgrades txn_buffers_scrubbed offered_requests
    admitted_requests queued_requests shed_requests shed_responses
    shed_by_class goodput_pages queue_depth_peak scale_ups scale_downs
    control_events events_processed kernel_events n_shards
    cache_hit_ratio degraded_serve_ratio stale_read_fraction error_rate
    availability personalization_rate goodput_ratio shed_ratio
    """.split()
)
#: Present only when the run produced them.
CONDITIONAL_KEYS = frozenset({"plt", "tier_breakdown"})
UNEXPORTED_FIELDS = frozenset(
    """
    metrics plt personalization_checks personalization_misses
    trace_records wall_seconds
    """.split()
)


def test_to_dict_key_set_is_frozen():
    empty = _result()
    assert set(empty.to_dict()) == EXPORTED_KEYS
    full = _result(tier_breakdown={"edge": 0.1}, trace_records=[])
    full.plt.observe(0.3)
    assert set(full.to_dict()) == EXPORTED_KEYS | CONDITIONAL_KEYS
    assert set(full.to_dict()["plt"]) == {"p50", "p95", "p99", "mean", "count"}


def test_unexported_field_set_is_frozen():
    unexported = {
        spec.name
        for spec in dataclasses.fields(RunResult)
        if spec.metadata["export"] is False
    }
    assert unexported == UNEXPORTED_FIELDS
    assert len(dataclasses.fields(RunResult)) == 55


def test_to_dict_value_types_and_isolation():
    result = _result(
        served_by_kind={"edge": {"page": 1}}, shed_by_class={"static": 2}
    )
    record = result.to_dict()
    assert record["scenario"] == "speed-kit"
    assert type(record["page_views"]) is int
    assert type(record["max_staleness"]) is float
    assert type(record["cache_hit_ratio"]) is float
    record["served_by_kind"]["edge"]["page"] = 99
    record["shed_by_class"]["static"] = 99
    assert result.served_by_kind == {"edge": {"page": 1}}
    assert result.shed_by_class == {"static": 2}


# -- every field is sourced ---------------------------------------------------

#: The fields ``over`` reads from no declared source, each with where
#: its value comes from instead. Anything else declares exactly one.
STAMPS = {
    "scenario_name": "the spec's name, given to over()",
    "metrics": "the registry itself",
    "plt": "an alias of the registry's plt.all histogram",
    "trace_records": "the span export, given to over()",
    "tier_breakdown": "the sums of the tier.plt.* sketches",
    "wall_seconds": "host time, stamped by whoever ran the run",
}


def test_every_field_is_sourced_or_a_stamp_that_says_why():
    declared = {
        spec.name: [
            (source, spec.metadata[source])
            for source in SOURCES
            if spec.metadata[source] is not None
        ]
        for spec in dataclasses.fields(RunResult)
    }
    assert {name for name, sources in declared.items() if not sources} == set(
        STAMPS
    )
    assert all(len(sources) <= 1 for sources in declared.values())
    # One collector, one field: no two fields restate the same source.
    sourced = [sources[0] for sources in declared.values() if sources]
    assert len(set(sourced)) == len(sourced) == 49


def test_counters_restate_the_registry():
    metrics = MetricRegistry()
    metrics.counter("overload.offered.total").inc(5)
    metrics.counter("overload.shed.static").inc(2)
    metrics.counter("overload.shed.total").inc(2)
    metrics.counter("bytes.edge_egress").inc(1024)
    metrics.counter("txn.aborts").inc(3)
    metrics.counter("txn.degraded").inc()
    metrics.counter("txn.erase_conflicts").inc()
    metrics.counter("overload.goodput_pages").inc(7)
    metrics.counter("run.kernels").inc(2)
    result = RunResult.over("speed-kit", metrics)
    assert result.scenario_name == "speed-kit" and result.metrics is metrics
    assert result.plt is metrics.histogram("plt.all")
    assert result.offered_requests == 5
    assert result.shed_requests == 2
    assert result.shed_by_class == {"static": 2}  # zero labels dropped
    assert result.edge_egress_bytes == 1024
    assert result.origin_egress_bytes == 0  # untouched counter reads 0
    assert (result.txn_aborts, result.txn_degraded) == (3, 1)
    assert (result.txn_erase_conflicts, result.goodput_pages) == (1, 7)
    assert result.n_shards == 2


def test_counter_families_restate_in_the_fields_shape():
    metrics = MetricRegistry()
    for name, count in {
        "serve.layer.edge": 3,
        "serve.layer.sw": 2,
        "serve.layered": 9,  # shares letters, not the dotted prefix
        "serve.kind.edge.page": 2,
        "serve.kind.edge.api.v2": 1,
        "serve.kind.sw.page": 2,
        "serve.shed.edge": 1,
        "serve.shed.origin": 2,
        "overload.shed.static": 4,
        "overload.shed.total": 4,
        "overload.shed.control": 0,
    }.items():
        metrics.counter(name).inc(count)
    result = RunResult.over("speed-kit", metrics)
    assert result.served_by_layer == {"edge": 3, "sw": 2}
    # A nested label splits at its first dot only.
    assert result.served_by_kind == {
        "edge": {"page": 2, "api.v2": 1},
        "sw": {"page": 2},
    }
    # An integer field restates a family as its total.
    assert result.shed_responses == 3
    # ``overload.shed.total`` is ``shed_requests``' own counter, not a
    # class of ``overload.shed.*``; a zero label is dropped.
    assert result.shed_by_class == {"static": 4}
    assert result.shed_requests == 4
    # A family nothing counted into restates as an empty map.
    assert result.served_degraded_by_layer == {}
    assert type(result.shed_responses) is int
    assert type(result.served_by_layer["edge"]) is int


def test_peaks_and_observation_counts_restate_histograms():
    metrics = MetricRegistry()
    idle = RunResult.over("speed-kit", metrics)
    # A source nothing observed into leaves the default standing.
    assert (idle.max_staleness, idle.queue_depth_peak) == (0.0, 0)
    assert (idle.reads_checked, idle.page_views) == (0, 0)
    assert idle.tier_breakdown is None and idle.trace_records is None
    metrics.histogram("coherence.staleness").extend([0.0, 2.5, 1.0])
    metrics.histogram("coherence.uncovered.staleness").extend([9.0, 0.0])
    metrics.histogram("overload.queue_depth_peak").extend([4, 9, 1])
    metrics.histogram("plt.all").extend([0.1, 0.2])
    metrics.sketch("tier.plt.origin").observe(1.0)
    metrics.sketch("tier.plt.edge").observe(0.25)
    metrics.sketch("tier.plt.edge").observe(0.5)
    metrics.sketch("txn.plt.delta").observe(3.0)  # not a tier sketch
    spans = [{"span": 1}]
    busy = RunResult.over("speed-kit", metrics, spans)
    assert (busy.max_staleness, busy.uncovered_max_staleness) == (2.5, 9.0)
    assert (busy.reads_checked, busy.page_views) == (5, 2)
    # Restated in the field's own type: the export keeps its integer.
    assert busy.queue_depth_peak == 9 and type(busy.queue_depth_peak) is int
    assert type(busy.max_staleness) is float
    assert busy.tier_breakdown == {"edge": 0.75, "origin": 1.0}
    # In the order the tiers were first met: tier tables break ties by it.
    assert list(busy.tier_breakdown) == ["origin", "edge"]
    assert busy.trace_records is spans


# -- two real shards against an independent fold ----------------------------

MAX_KEYS = {"max_staleness", "uncovered_max_staleness", "queue_depth_peak"}
RATIO_KEYS = {
    "cache_hit_ratio",
    "degraded_serve_ratio",
    "stale_read_fraction",
    "error_rate",
    "availability",
    "personalization_rate",
    "goodput_ratio",
    "shed_ratio",
}


def _fold(key, a, b):
    """What two shards' exported values must combine to, spelled out
    here rather than read from the ledger's own declarations."""
    if isinstance(a, dict) or isinstance(b, dict):
        a, b = a or {}, b or {}
        return {
            inner: _fold(key, a.get(inner), b.get(inner))
            for inner in a.keys() | b.keys()
        }
    if a is None or b is None:
        return b if a is None else a
    return max(a, b) if key in MAX_KEYS else a + b


@pytest.fixture(scope="module")
def world():
    """24 users (two of them non-consenting, so both coherence checkers
    see reads) and a trace with every event kind in it."""
    catalog = generate_catalog(CatalogConfig(n_products=30), random.Random(4))
    users = generate_users(UserPopulationConfig(n_users=24), random.Random(5))
    trace = WorkloadGenerator(
        catalog,
        users,
        WorkloadConfig(
            duration=240.0,
            session_rate=0.5,
            write_rate=1.0,
            txn_mix=0.3,
            erase_fraction=0.5,
            access_rate=0.02,
        ),
    ).generate(random.Random(6))
    return catalog, users, trace


STORM = ScenarioSpec(
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
    load_multiplier=3.0,
    trace_requests=True,
    seed=4,
)


@pytest.fixture(scope="module")
def storm_shards(world):
    tasks = ShardedSimulationRunner(STORM, *world, n_shards=2).tasks()
    return [run_shard(task) for task in tasks]


def test_storm_shards_merge_to_an_independent_fold(storm_shards):
    first, second = (copy.deepcopy(shard) for shard in storm_shards)
    a, b = first.to_dict(), second.to_dict()
    plt_values = sorted(first.plt.values + second.plt.values)
    checks = first.personalization_checks + second.personalization_checks
    spans = len(first.trace_records) + len(second.trace_records)
    # The composition exercises every ledger section on both shards,
    # so a mis-sourced field cannot hide behind a zero.
    for key in ("txns", "erasures", "offered_requests", "failed_responses"):
        assert a[key] > 0 and b[key] > 0, key
    assert a["tier_breakdown"] and b["tier_breakdown"]
    assert a["queue_depth_peak"] and b["queue_depth_peak"]

    merged = ShardedSimulationRunner._merge([first, second])
    record = merged.to_dict()

    assert set(record) == set(a) | set(b)
    for key in set(record) - RATIO_KEYS - {"scenario", "plt"}:
        assert record[key] == _fold(key, a[key], b[key]), key
        assert type(record[key]) is type(a[key]), key
    assert record["scenario"] == a["scenario"] == b["scenario"]
    assert record["n_shards"] == 2
    assert record["plt"]["count"] == len(plt_values)
    assert sorted(merged.plt.values) == plt_values
    assert merged.personalization_checks == checks
    assert len(merged.trace_records) == spans
    # Ratios are derived from the merged ledger, never merged themselves.
    served = sum(record["served_by_layer"].values())
    assert record["error_rate"] == record["failed_responses"] / (
        served + record["failed_responses"]
    )
    assert record["shed_ratio"] == (
        record["shed_requests"] / record["offered_requests"]
    )
    assert record["offered_requests"] == (
        record["admitted_requests"] + record["shed_requests"]
    )
    # The merged result is the merged registry restated, nothing more:
    # a fresh ledger over what it exports is the same result.
    again = RunResult.over(
        merged.scenario_name, merged.metrics, merged.trace_records
    )
    assert again == merged
    busy = (
        "served_degraded_by_layer failed_responses shed_responses "
        "shed_by_class txns txn_refetches erasures erasure_removed "
        "spans_scrubbed offered_requests control_events sketch_fetches"
    )
    for name in busy.split():
        assert getattr(merged, name), name


# -- a real run against the reference implementations -------------------------


def _reads_judged_from_the_spans(runner):
    """``(covered, staleness)`` of every checked read, rebuilt the long
    way: the reads the run's spans record (page loads and transactions;
    before export, which pseudonymises erased users), each judged
    against the origin's version history."""
    records = span_records(runner.tracer.spans)
    # Whether a client is under the Δ promise, as its page views say
    # (its stack is retired by the time the run is over).
    covered = {
        record["attrs"]["user"]: record["attrs"]["covered"]
        for record in records
        if record["name"] == "pageview"
    }
    reads = [
        (read["client"], read["version_key"], read["version"], read["read_at"])
        for read in reads_from_trace(records)
    ] + [
        (txn["client"], version_key, version, read_at)
        for txn in txns_from_trace(records)
        for version_key, version, read_at in txn["reads"]
    ]
    versions = runner.server.versions
    judged = []
    for client, version_key, version, read_at in reads:
        superseded = versions.superseded_at(version_key, version)
        staleness = 0.0
        if superseded is not None and superseded < read_at:
            staleness = read_at - superseded
        judged.append((covered[client], staleness))
    return judged


def _assert_restates_its_export(runner, result, nonzero) -> None:
    """``result`` against the owners and oracles that hold each number
    the long way; they stay, as references, exactly for this. The
    checkers keep counts, not reads, so the reads are the spans'."""
    assert result is runner.result
    again = RunResult.over(
        result.scenario_name, result.metrics, result.trace_records
    )
    assert again == result
    covered, uncovered = runner.checker, runner.baseline_checker
    assert result.reads_checked == covered.read_count + uncovered.read_count
    assert result.max_staleness == covered.max_staleness()
    assert result.uncovered_max_staleness == uncovered.max_staleness()
    judged = _reads_judged_from_the_spans(runner)
    assert len(judged) > 100
    assert result.reads_checked == len(judged)
    assert result.max_staleness == max(
        (staleness for is_covered, staleness in judged if is_covered),
        default=0.0,
    )
    assert result.uncovered_max_staleness == max(
        (staleness for is_covered, staleness in judged if not is_covered),
        default=0.0,
    )
    assert result.stale_reads == sum(staleness > 0 for _, staleness in judged)
    assert result.origin_requests == runner.server.requests_served
    assert result.events_processed == len(runner.trace)
    assert result.kernel_events == runner.env.steps
    assert result.n_shards == 1
    assert result.tier_breakdown == tier_breakdown(result.trace_records)
    for name in nonzero:
        assert getattr(result, name), name


@pytest.mark.parametrize(
    "scenario, nonzero",
    [
        (
            Scenario.SPEED_KIT,
            "sketch_fetches sketch_bytes requests_scrubbed stale_reads "
            "erasures erasure_removed txns personalization_checks "
            "max_staleness uncovered_max_staleness tier_breakdown",
        ),
        (Scenario.NO_CACHE, "served_by_kind page_views erasures accesses"),
    ],
)
def test_a_plain_run_is_its_export_restated(world, scenario, nonzero):
    spec = ScenarioSpec(scenario, seed=4, trace_requests=True)
    runner = SimulationRunner(spec, *world)
    _assert_restates_its_export(runner, runner.run(), nonzero.split())
    assert runner.result.queue_depth_peak == 0  # no plane, no observation


def test_a_storm_run_is_its_export_restated(world):
    runner = SimulationRunner(STORM, *world)
    _assert_restates_its_export(
        runner, runner.run(), ("queue_depth_peak", "txn_refetches")
    )
    assert runner.result.queue_depth_peak == runner._overload.queue_depth_peak()
