"""Tests for multi-seed replication."""

import pytest

from repro.harness import (
    MetricSummary,
    Scenario,
    ScenarioSpec,
    replicate,
)
from repro.workload import CatalogConfig, UserPopulationConfig, WorkloadConfig

SMALL = dict(
    catalog_config=CatalogConfig(n_products=20),
    population_config=UserPopulationConfig(n_users=8),
    workload_config=WorkloadConfig(duration=300.0, session_rate=0.1),
)


class TestMetricSummary:
    def test_mean_and_ci(self):
        summary = MetricSummary("m", values=[1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == 3.0
        assert summary.stddev == pytest.approx(1.5811, abs=1e-3)
        assert summary.ci95_half_width == pytest.approx(1.386, abs=1e-2)

    def test_single_value_has_no_spread(self):
        summary = MetricSummary("m", values=[7.0])
        assert summary.stddev == 0.0
        assert summary.ci95_half_width == 0.0

    def test_as_row_scaling(self):
        summary = MetricSummary("plt_p50", values=[0.1, 0.2])
        row = summary.as_row(scale=1000.0, digits=1)
        assert row["plt_p50_mean"] == 150.0
        assert "plt_p50_ci95" in row


class TestReplicate:
    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(
                ScenarioSpec(scenario=Scenario.SPEED_KIT), n_seeds=0
            )

    def test_runs_and_aggregates(self):
        result = replicate(
            ScenarioSpec(scenario=Scenario.SPEED_KIT), n_seeds=3, **SMALL
        )
        assert len(result.runs) == 3
        assert len(result.metrics["plt_p50"].values) == 3
        assert result.total_violations == 0
        row = result.summary_row()
        assert row["scenario"] == "speed-kit"
        assert row["plt_p50_mean"] > 0
        assert row["plt_p50_ci95"] >= 0

    def test_seeds_actually_vary_the_workload(self):
        result = replicate(
            ScenarioSpec(scenario=Scenario.NO_CACHE), n_seeds=3, **SMALL
        )
        medians = result.metrics["plt_p50"].values
        assert len(set(medians)) > 1  # different seeds, different draws

    def test_replication_is_deterministic(self):
        spec = ScenarioSpec(scenario=Scenario.CLASSIC_CDN)
        a = replicate(spec, n_seeds=2, **SMALL)
        b = replicate(spec, n_seeds=2, **SMALL)
        assert a.metrics["plt_p50"].values == b.metrics["plt_p50"].values
