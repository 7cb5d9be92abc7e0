"""E24 — The price of multi-key consistency at the edge.

One transaction-heavy workload replays at every rung of the
consistency ladder (plus asynchronous-backend and faulted variants of
the strongest rung) and the table reports what each guarantee costs:
transaction latency quantiles, abort/retry traffic, refetch volume,
and degradations. The qualitative claims the table must support:

* **Monotone cost**: median transaction latency never *decreases* as
  the guarantee strengthens — delta ≤ snapshot ≤ serializable.
* **Zero violations everywhere**: ground truth confirms no fractured
  reads, no serialization violations, and no silent downgrades at any
  rung, under any variant.
* **Bounded optimism**: serializable aborts are reported, and the
  validation retry volume never exceeds the per-transaction budget.
"""

import random

import pytest

from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner, format_table
from repro.storage import BackendSpec
from repro.txn.coordinator import VALIDATION_RETRIES
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

from benchmarks.conftest import SMOKE, emit

LEVELS = ("delta", "snapshot", "serializable")

VARIANTS = {
    "serializable+write-behind": dict(
        consistency="serializable",
        backend=BackendSpec(kind="write-behind"),
    ),
    "serializable+outage": dict(
        consistency="serializable",
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
}


@pytest.fixture(scope="module")
def txn_workload():
    """Shop traffic with a heavy multi-key transaction mix."""
    catalog = generate_catalog(
        CatalogConfig(n_products=60), random.Random(0)
    )
    users = generate_users(
        UserPopulationConfig(n_users=30, consent_fraction=1.0),
        random.Random(1),
    )
    config = WorkloadConfig(
        duration=1200.0 if SMOKE else 3600.0,
        session_rate=0.25,
        mean_session_length=5.0,
        think_time_mean=10.0,
        write_rate=0.1,
        txn_mix=0.35,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(2)
    )
    return catalog, users, trace


@pytest.fixture(scope="module")
def results(txn_workload):
    catalog, users, trace = txn_workload
    out = {}
    for level in LEVELS:
        spec = ScenarioSpec(
            scenario=Scenario.SPEED_KIT, delta=60.0, consistency=level
        )
        out[level] = SimulationRunner(spec, catalog, users, trace).run()
    for name, extras in VARIANTS.items():
        spec = ScenarioSpec(
            scenario=Scenario.SPEED_KIT, delta=60.0, **extras
        )
        out[name] = SimulationRunner(spec, catalog, users, trace).run()
    return out


def _level_of(name):
    return name.split("+")[0]


def _row(name, result):
    plt = result.metrics.histogram(f"txn.plt.{_level_of(name)}")
    violations = (
        result.txn_fractured_reads
        + result.txn_serialization_violations
        + result.txn_silent_downgrades
    )
    return {
        "config": name,
        "txns": result.txns,
        "txn_p50_ms": round(plt.percentile(50) * 1000, 2),
        "txn_p95_ms": round(plt.percentile(95) * 1000, 2),
        "aborts": result.txn_aborts,
        "abort_rate": round(result.txn_aborts / max(1, result.txns), 4),
        "retries": result.txn_validation_retries,
        "refetches": result.txn_refetches,
        "degraded": result.txn_degraded,
        "violations": violations,
    }


def test_bench_e24_consistency_ladder(results, benchmark):
    rows = [_row(name, result) for name, result in results.items()]
    emit(
        "e24_consistency",
        format_table(
            rows, title="E24: consistency ladder cost & correctness"
        ),
    )
    by_config = {row["config"]: row for row in rows}
    for row in rows:
        # Every variant really ran transactions ...
        assert row["txns"] > 0, row["config"]
        # ... with zero invariant violations at every rung.
        assert row["violations"] == 0, row["config"]
    # Monotone cost: stronger guarantees never get cheaper.
    assert (
        by_config["delta"]["txn_p50_ms"]
        <= by_config["snapshot"]["txn_p50_ms"]
        <= by_config["serializable"]["txn_p50_ms"]
    )
    # The machinery engages exactly where the ladder says it should.
    assert by_config["delta"]["refetches"] == 0
    assert by_config["snapshot"]["refetches"] > 0
    assert by_config["serializable"]["retries"] >= 0

    benchmark.pedantic(
        lambda: [_row(name, r) for name, r in results.items()],
        rounds=5,
        iterations=2,
    )


def test_bench_e24_retries_respect_the_budget(results):
    """Optimistic validation is bounded: total retries never exceed
    transactions times the per-transaction retry budget."""
    for name, result in results.items():
        assert (
            result.txn_validation_retries <= result.txns * VALIDATION_RETRIES
        ), name


def test_bench_e24_degradations_only_under_faults(results):
    """Fault-free replays never degrade; the outage variant may, but
    every degradation is marked (zero silent downgrades is asserted
    for all rows above)."""
    for name, result in results.items():
        if "outage" not in name:
            assert result.txn_degraded == 0, name


def test_bench_e24_ladder_stays_clean_per_key(results):
    """Transactions ride the same Δ-bounded reads: the per-key
    checker stays violation-free under every variant."""
    for name, result in results.items():
        assert result.delta_violations == 0, name
