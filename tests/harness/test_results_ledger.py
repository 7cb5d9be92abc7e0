"""The result ledger: one rule per field, and what the rules add up to.

Four guards on ``RunResult``'s declarative merge/export:

* each merge *rule* does what its name says (one test per rule, not
  per field) and a field declared without a rule cannot exist;
* the exported key set and the unexported field set are frozen — the
  benchmark's ``sim_digest`` hashes ``to_dict()``, so a drifting key
  would silently re-baseline every digest;
* two real shards of a storm-style run merge to exactly what a fold
  written here, from the two shard results directly, says they should;
* the result is a function of the registry: every count field is a
  counter (or counter family) restated, so a fresh ``RunResult`` over a
  finished run's registry reproduces it — nothing keeps a second book.
"""

import copy
import dataclasses
import random

import pytest

from repro.faults import FaultProfile, RetryPolicy
from repro.harness.results import MERGE_RULES, RunResult, ledger
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.overload import OVERLOAD_PROFILES
from repro.parallel import ShardedSimulationRunner, run_shard
from repro.sim.metrics import MetricRegistry
from repro.storage import BackendSpec
from repro.workload.catalog import CatalogConfig, generate_catalog
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.users import UserPopulationConfig, generate_users


def _result(**values) -> RunResult:
    metrics = MetricRegistry()
    return RunResult(
        scenario_name=values.pop("scenario_name", "speed-kit"),
        metrics=metrics,
        plt=metrics.histogram("plt.all"),
        **values,
    )


# -- one test per merge rule ------------------------------------------------


def test_sum_rule_adds():
    merged = _result(page_views=3).merge(_result(page_views=4))
    assert merged.page_views == 7


def test_max_rule_keeps_the_worst_shard():
    merged = _result(max_staleness=2.5).merge(_result(max_staleness=1.0))
    assert merged.max_staleness == 2.5
    merged = _result(queue_depth_peak=1).merge(_result(queue_depth_peak=9))
    assert merged.queue_depth_peak == 9


def test_sum_map_rule_adds_per_key():
    ours = _result(served_by_layer={"origin": 2, "edge": 1})
    theirs = _result(served_by_layer={"edge": 5, "sw": 7})
    assert ours.merge(theirs).served_by_layer == {
        "origin": 2,
        "edge": 6,
        "sw": 7,
    }
    assert theirs.served_by_layer == {"edge": 5, "sw": 7}


def test_sum_nested_map_rule_adds_per_leaf():
    ours = _result(served_by_kind={"edge": {"page": 1}})
    theirs = _result(
        served_by_kind={"edge": {"page": 2, "api": 3}, "sw": {"page": 4}}
    )
    assert ours.merge(theirs).served_by_kind == {
        "edge": {"page": 3, "api": 3},
        "sw": {"page": 4},
    }
    # The merged ledger shares no inner map with the shard it absorbed.
    ours.served_by_kind["sw"]["page"] += 1
    assert theirs.served_by_kind["sw"] == {"page": 4}


def test_concat_rule_appends_in_order():
    ours = _result(trace_records=[{"id": 1}])
    theirs = _result(trace_records=[{"id": 2}, {"id": 3}])
    assert ours.merge(theirs).trace_records == [
        {"id": 1},
        {"id": 2},
        {"id": 3},
    ]


def test_a_side_that_recorded_nothing_leaves_the_other_standing():
    traced = {"tier_breakdown": {"edge": 0.5}, "trace_records": [{"id": 1}]}
    into_none = _result().merge(_result(**copy.deepcopy(traced)))
    assert into_none.tier_breakdown == {"edge": 0.5}
    assert into_none.trace_records == [{"id": 1}]
    from_none = _result(**copy.deepcopy(traced)).merge(_result())
    assert from_none.tier_breakdown == {"edge": 0.5}
    assert from_none.trace_records == [{"id": 1}]
    neither = _result().merge(_result())
    assert neither.tier_breakdown is None and neither.trace_records is None


def test_same_rule_refuses_to_mix_scenarios():
    ours = _result(page_views=1)
    with pytest.raises(ValueError, match="classic-cdn.*speed-kit"):
        ours.merge(_result(scenario_name="classic-cdn", page_views=1))
    assert ours.page_views == 1  # refused before anything folded


def test_registry_rule_merges_histograms_once_and_keeps_aliases():
    ours, theirs = _result(), _result()
    ours.plt.observe(0.1)
    theirs.plt.observe(0.2)
    theirs.metrics.histogram("plt.page.home").observe(0.2)
    assert ours.metrics.get_histogram("plt.page.home") is None
    ours.merge(theirs)
    assert ours.plt.values == (0.1, 0.2)
    assert ours.plt is ours.metrics.histogram("plt.all")
    assert ours.metrics.get_histogram("plt.page.home").values == (0.2,)


def test_every_rule_is_used_and_every_field_has_one():
    used = {
        spec.metadata["merge"] for spec in dataclasses.fields(RunResult)
    }
    assert used == set(MERGE_RULES)


def test_a_field_without_a_rule_fails_at_class_creation():
    with pytest.raises(TypeError, match="bytes_wasted"):

        @dataclasses.dataclass
        class Forgetful(RunResult):
            bytes_wasted: int = 0

    with pytest.raises(TypeError, match="bytes_wasted"):

        class Bare(RunResult):
            bytes_wasted: int = dataclasses.field(default=0)

    with pytest.raises(TypeError, match="unknown merge rule"):
        ledger("average", 0)

    @dataclasses.dataclass
    class Declared(RunResult):
        bytes_wasted: int = ledger("sum", 0)

    metrics = MetricRegistry()
    extended = Declared("x", metrics, metrics.histogram("plt.all"))
    assert "bytes_wasted" in extended.to_dict()


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


def test_mirrored_counters_restate_the_registry():
    result = _result()
    result.metrics.counter("overload.offered.total").inc(5)
    result.metrics.counter("overload.shed.static").inc(2)
    result.metrics.counter("overload.shed.total").inc(2)
    result.metrics.counter("bytes.edge_egress").inc(1024)
    result.metrics.counter("txn.aborts").inc(3)
    result.metrics.counter("txn.degraded").inc()
    result.metrics.counter("txn.erase_conflicts").inc()
    result.metrics.counter("overload.goodput_pages").inc(7)
    result.mirror_counters()
    assert result.offered_requests == 5
    assert result.shed_requests == 2
    assert result.shed_by_class == {"static": 2}  # zero labels dropped
    assert result.edge_egress_bytes == 1024
    assert result.origin_egress_bytes == 0  # untouched counter reads 0
    assert (result.txn_aborts, result.txn_degraded) == (3, 1)
    assert (result.txn_erase_conflicts, result.goodput_pages) == (1, 7)
    mirrored = {
        spec.name
        for spec in dataclasses.fields(RunResult)
        if spec.metadata["counter"] is not None
    }
    assert len(mirrored) == 39


def test_counter_families_restate_in_the_fields_shape():
    result = _result()
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
        result.metrics.counter(name).inc(count)
    result.mirror_counters()
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


@pytest.fixture(scope="module")
def storm_shards(world):
    spec = ScenarioSpec(
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
    tasks = ShardedSimulationRunner(spec, *world, n_shards=2).tasks()
    return [run_shard(task).result for task in tasks]


def test_storm_shards_merge_to_an_independent_fold(storm_shards):
    first, second = (copy.deepcopy(shard) for shard in storm_shards)
    a, b = first.to_dict(), second.to_dict()
    plt_values = sorted(first.plt.values + second.plt.values)
    unexported = {
        name: getattr(first, name) + getattr(second, name)
        for name in (
            "personalization_checks",
            "personalization_misses",
            "wall_seconds",
        )
    }
    spans = first.trace_records + second.trace_records
    # The composition exercises every ledger section on both shards,
    # so a mis-declared rule cannot hide behind a zero.
    for key in ("txns", "erasures", "offered_requests", "failed_responses"):
        assert a[key] > 0 and b[key] > 0, key
    assert a["tier_breakdown"] and b["tier_breakdown"]

    merged = first.merge(second)
    record = merged.to_dict()

    assert set(record) == set(a) | set(b)
    for key in set(record) - RATIO_KEYS - {"scenario", "plt"}:
        assert record[key] == _fold(key, a[key], b[key]), key
    assert record["scenario"] == a["scenario"] == b["scenario"]
    assert record["n_shards"] == 2
    assert record["plt"]["count"] == len(plt_values)
    assert sorted(merged.plt.values) == plt_values
    for name, expected in unexported.items():
        assert getattr(merged, name) == expected, name
    assert merged.trace_records == spans
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


# -- the result is a function of the registry --------------------------------

#: Summed fields no counter holds, each with where its number lives
#: instead. Anything else that sums must declare ``counter=``.
NOT_COUNTERS = {
    "page_views": "the observation count of plt.all; mirror_counters "
    "restates it (checked below like a counter)",
    "reads_checked": "len(records) of the two coherence checkers; a "
    "counter would add a call to every checked read",
    "origin_requests": "OriginServer.requests_served",
    "txn_buffers_scrubbed": "TxnRegistry.buffers_scrubbed",
    "tier_breakdown": "derived from the exported spans",
    "events_processed": "stamped by run(): the length of the trace",
    "kernel_events": "stamped by run(): the kernel's step count",
    "n_shards": "1 per runner; merge adds them up",
    "wall_seconds": "stamped by run(): host time",
}
SUMMING_RULES = {"sum", "sum-map", "sum-nested-map"}


def test_every_summed_field_restates_a_counter_or_says_why_not():
    summed = {
        spec.name: spec.metadata["counter"]
        for spec in dataclasses.fields(RunResult)
        if spec.metadata["merge"] in SUMMING_RULES
    }
    uncounted = {name for name, counter in summed.items() if counter is None}
    assert uncounted == set(NOT_COUNTERS)
    counters = [counter for counter in summed.values() if counter is not None]
    assert len(set(counters)) == len(counters)  # one counter, one field


def _restated(result: RunResult) -> RunResult:
    """A fresh ledger over ``result``'s registry, counters mirrored."""
    fresh = RunResult(
        scenario_name=result.scenario_name,
        metrics=result.metrics,
        plt=result.metrics.histogram("plt.all"),
    )
    fresh.mirror_counters()
    return fresh


def _assert_restates(result: RunResult, nonzero=()) -> None:
    fresh = _restated(result)
    for spec in dataclasses.fields(RunResult):
        if spec.metadata["counter"] is None and spec.name != "page_views":
            continue
        ours, theirs = getattr(result, spec.name), getattr(fresh, spec.name)
        assert ours == theirs, spec.name
        assert type(ours) is type(theirs), spec.name
    for name in nonzero:
        assert getattr(result, name), name


@pytest.mark.parametrize(
    "scenario, nonzero",
    [
        (
            Scenario.SPEED_KIT,
            "sketch_fetches sketch_bytes requests_scrubbed stale_reads "
            "erasures erasure_removed txns personalization_checks",
        ),
        (Scenario.NO_CACHE, "served_by_kind page_views erasures accesses"),
    ],
)
def test_a_plain_run_is_its_registry_restated(world, scenario, nonzero):
    from repro.harness.runner import SimulationRunner

    runner = SimulationRunner(ScenarioSpec(scenario, seed=4), *world)
    result = runner.run()
    _assert_restates(result, nonzero.split())
    # Both populations were checked, and stale reads span both.
    assert runner.checker.read_count
    if scenario.uses_speed_kit:
        assert runner.baseline_checker.read_count
        assert result.stale_reads == sum(
            record.staleness > 0
            for checker in (runner.checker, runner.baseline_checker)
            for record in checker.records
        )


def test_storm_shards_and_their_merge_are_their_registries_restated(
    storm_shards,
):
    busy = (
        "served_degraded_by_layer failed_responses shed_responses "
        "shed_by_class txns txn_refetches erasures erasure_removed "
        "spans_scrubbed offered_requests control_events sketch_fetches"
    ).split()
    first, second = (copy.deepcopy(shard) for shard in storm_shards)
    _assert_restates(first)
    _assert_restates(second)
    _assert_restates(first.merge(second), busy)
