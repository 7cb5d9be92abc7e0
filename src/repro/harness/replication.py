"""Multi-seed replication: error bars for the headline numbers.

A single simulated run is one draw from the workload distribution;
credible comparisons need replication. :func:`replicate` runs the same
scenario across several seeds — regenerating the *workload* per seed,
so both traffic and network jitter vary — and aggregates the headline
metrics with means and 95 % confidence intervals (normal
approximation, which is adequate at n ≥ 5).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.harness.results import RunResult
from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import ScenarioSpec
from repro.workload.catalog import CatalogConfig, generate_catalog
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.users import UserPopulationConfig, generate_users


@dataclass
class MetricSummary:
    """Mean and spread of one metric across replications."""

    name: str
    values: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the 95 % CI (normal approximation)."""
        if len(self.values) < 2:
            return 0.0
        return 1.96 * self.stddev / math.sqrt(len(self.values))

    def as_row(self, scale: float = 1.0, digits: int = 1) -> Dict[str, float]:
        return {
            f"{self.name}_mean": round(self.mean * scale, digits),
            f"{self.name}_ci95": round(self.ci95_half_width * scale, digits),
        }


#: Metric extractors applied to each replication's RunResult.
DEFAULT_METRICS: Dict[str, Callable[[RunResult], float]] = {
    "plt_p50": lambda r: r.plt.percentile(50),
    "plt_p95": lambda r: r.plt.percentile(95),
    "hit_ratio": lambda r: r.cache_hit_ratio(),
    "stale_frac": lambda r: r.stale_read_fraction(),
}


@dataclass
class ReplicatedResult:
    """All replications of one scenario plus aggregated metrics."""

    scenario_name: str
    runs: List[RunResult]
    metrics: Dict[str, MetricSummary]

    @property
    def total_violations(self) -> int:
        return sum(run.delta_violations for run in self.runs)

    def summary_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"scenario": self.scenario_name}
        for name, summary in self.metrics.items():
            scale = 1000.0 if name.startswith("plt") else 1.0
            digits = 1 if name.startswith("plt") else 4
            row.update(summary.as_row(scale=scale, digits=digits))
        row["violations"] = self.total_violations
        return row


def replicate(
    spec: ScenarioSpec,
    n_seeds: int = 5,
    catalog_config: Optional[CatalogConfig] = None,
    population_config: Optional[UserPopulationConfig] = None,
    workload_config: Optional[WorkloadConfig] = None,
    metrics: Optional[Dict[str, Callable[[RunResult], float]]] = None,
    base_seed: int = 1000,
) -> ReplicatedResult:
    """Run ``spec`` over ``n_seeds`` independently generated workloads."""
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive: {n_seeds}")
    extractors = metrics or DEFAULT_METRICS
    catalog_config = catalog_config or CatalogConfig(n_products=60)
    population_config = population_config or UserPopulationConfig(n_users=30)
    workload_config = workload_config or WorkloadConfig(
        duration=1800.0, session_rate=0.2
    )
    runs: List[RunResult] = []
    summaries = {name: MetricSummary(name) for name in extractors}
    for replication in range(n_seeds):
        seed = base_seed + replication * 17
        catalog = generate_catalog(catalog_config, random.Random(seed))
        users = generate_users(population_config, random.Random(seed + 1))
        trace = WorkloadGenerator(
            catalog, users, workload_config
        ).generate(random.Random(seed + 2))
        run_spec = ScenarioSpec(**{**spec.__dict__, "seed": seed})
        result = SimulationRunner(run_spec, catalog, users, trace).run()
        runs.append(result)
        for name, extract in extractors.items():
            summaries[name].values.append(extract(result))
    return ReplicatedResult(
        scenario_name=spec.name, runs=runs, metrics=summaries
    )
