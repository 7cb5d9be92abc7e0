"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one table/figure of the evaluation (see
EXPERIMENTS.md). The underlying simulations are cached per session so
the pytest-benchmark timing loop never replays a multi-second
simulation more than necessary; each printed table is also written to
``benchmarks/results/`` so the reproduced numbers survive the run.
"""

import dataclasses
import os
import random
from pathlib import Path

import pytest

from repro.harness import ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Smoke mode (CI): a shorter workload keeps every experiment's
#: qualitative assertions intact while the whole suite fits in a
#: pull-request pipeline.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The standard evaluation workload: one hour of shop traffic.
STANDARD_WORKLOAD = WorkloadConfig(
    duration=1200.0 if SMOKE else 3600.0,
    session_rate=0.25,
    mean_session_length=5.0,
    think_time_mean=10.0,
    write_rate=0.05,
)


@pytest.fixture(scope="session")
def workload():
    """(catalog, users, trace) shared by all experiments."""
    catalog = generate_catalog(
        CatalogConfig(n_products=60), random.Random(0)
    )
    users = generate_users(
        UserPopulationConfig(n_users=30, consent_fraction=1.0),
        random.Random(1),
    )
    trace = WorkloadGenerator(catalog, users, STANDARD_WORKLOAD).generate(
        random.Random(2)
    )
    return catalog, users, trace


@pytest.fixture(scope="session")
def run_cached(workload):
    """Run (and memoize) one scenario spec against the workload.

    The memo key is the whole spec, field by field: two specs share a
    run only when no field tells them apart.
    """
    catalog, users, trace = workload
    cache = {}

    def run(spec: ScenarioSpec):
        key = tuple(
            getattr(spec, field.name) for field in dataclasses.fields(spec)
        )
        if key not in cache:
            cache[key] = SimulationRunner(
                spec, catalog, users, trace
            ).run()
        return cache[key]

    return run


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
