"""E23 — Right to erasure: latency and completeness across every tier.

Reproduces the GDPRbench-style table for the erasure subsystem: a
workload with interleaved Art. 17 erase and Art. 15 access requests
replays under the synchronous, write-behind and replicated stacks,
and for each the table reports how much was removed from where, what
an erasure costs in simulated time, and — the compliance column — how
many residuals survived. That column must read zero everywhere: it is
the same property the ``gdpr-compliance`` CI gate enforces.
"""

import random

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner, format_table
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

from benchmarks.conftest import SMOKE, emit

CONFIGS = {
    "sync": {},
    "write-behind": dict(backend=BackendSpec(kind="write-behind")),
    "replicated": dict(replicate_pops=True, n_regions=3),
    "write-behind-replicated": dict(
        backend=BackendSpec(kind="write-behind"),
        replicate_pops=True,
        n_regions=3,
    ),
}


@pytest.fixture(scope="module")
def gdpr_workload():
    """Shop traffic with the GDPR request mix interleaved."""
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
        write_rate=0.05,
        cart_add_prob=0.3,
        erase_fraction=0.5,
        access_rate=0.02,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(2)
    )
    return catalog, users, trace


@pytest.fixture(scope="module")
def results(gdpr_workload):
    catalog, users, trace = gdpr_workload
    out = {}
    for name, extras in CONFIGS.items():
        spec = ScenarioSpec(
            scenario=Scenario.SPEED_KIT, delta=60.0, **extras
        )
        out[name] = SimulationRunner(spec, catalog, users, trace).run()
    return out


def _row(name, result):
    erase_ms = result.metrics.histogram("gdpr.erase.latency")
    access_ms = result.metrics.histogram("gdpr.access.latency")
    return {
        "config": name,
        "erasures": result.erasures,
        "accesses": result.accesses,
        "removed": result.erasure_removed,
        "queued_scrubbed": result.erasure_queued_scrubbed,
        "replicas_dropped": result.erasure_replicas_dropped,
        "erase_p50_ms": round(erase_ms.percentile(50) * 1000, 2),
        "erase_p99_ms": round(erase_ms.percentile(99) * 1000, 2),
        "access_p50_ms": round(access_ms.percentile(50) * 1000, 2),
        "residuals": result.erasure_residuals,
    }


def test_bench_e23_erasure_latency_and_completeness(results, benchmark):
    rows = [_row(name, result) for name, result in results.items()]
    emit(
        "e23_gdpr_erasure",
        format_table(
            rows, title="E23: right-to-erasure latency & completeness"
        ),
    )
    by_config = {row["config"]: row for row in rows}
    for row in rows:
        # The request mix really replayed ...
        assert row["erasures"] > 0, row["config"]
        assert row["accesses"] > 0, row["config"]
        assert row["removed"] > 0, row["config"]
        # ... and the compliance column reads zero everywhere.
        assert row["residuals"] == 0, row["config"]
    # The walk reports honest simulated cost: erasing through the
    # write-behind stack pays (at least) the epoch-flush barrier,
    # while the zero-cost in-memory sync stack is free.
    assert by_config["write-behind"]["erase_p50_ms"] > 0

    benchmark.pedantic(
        lambda: [_row(name, r) for name, r in results.items()],
        rounds=5,
        iterations=2,
    )


def test_bench_e23_asynchrony_costs_erasure_latency(results):
    """Erasing through a write-behind stack pays the flush barrier:
    its tail erasure latency dominates the synchronous stack's."""
    sync = results["sync"].metrics.histogram("gdpr.erase.latency")
    behind = results["write-behind"].metrics.histogram("gdpr.erase.latency")
    assert behind.percentile(99) >= sync.percentile(99)


def test_bench_e23_erasures_leave_the_checker_clean(results):
    for name, result in results.items():
        assert result.delta_violations == 0, name
