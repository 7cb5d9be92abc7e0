"""E1 — Page load time across delivery stacks (the headline figure).

Reproduces the paper's central claim: Speed Kit accelerates page loads
well beyond a classic CDN, because it can cache personalized content
the CDN must pass on. Prints median/p95 PLT per scenario (overall and
per connection type) and asserts the expected ordering.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import emit

SCENARIOS = [
    Scenario.NO_CACHE,
    Scenario.BROWSER_ONLY,
    Scenario.CLASSIC_CDN,
    Scenario.SPEED_KIT,
]


@pytest.fixture(scope="module")
def results(run_cached):
    return {
        scenario: run_cached(ScenarioSpec(scenario=scenario))
        for scenario in SCENARIOS
    }


def test_bench_e1_plt(results, benchmark, run_cached, workload):
    rows = []
    for scenario in SCENARIOS:
        result = results[scenario]
        row = {
            "scenario": result.scenario_name,
            "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
            "plt_p95_ms": round(result.plt.percentile(95) * 1000, 1),
            "plt_mean_ms": round(result.plt.mean() * 1000, 1),
        }
        for connection in ("fiber", "cable", "lte", "3g"):
            hist = result.metrics.get_histogram(f"plt.conn.{connection}")
            if hist is not None and len(hist):
                row[f"p50_{connection}_ms"] = round(
                    hist.percentile(50) * 1000, 1
                )
        rows.append(row)
    emit(
        "e1_plt",
        format_table(rows, title="E1: page load time by scenario"),
    )

    # The paper's figure is a distribution: render it as text.
    from repro.harness import cdf_table, text_histogram

    cdf_rows = cdf_table(
        {
            results[s].scenario_name: [
                v * 1000 for v in results[s].plt.values
            ]
            for s in SCENARIOS
        },
        unit="ms",
    )
    histogram = text_histogram(
        [v * 1000 for v in results[Scenario.SPEED_KIT].plt.values],
        bins=14,
        title="Speed Kit PLT distribution (ms)",
        unit="ms",
    )
    emit(
        "e1_plt_distribution",
        format_table(cdf_rows, title="E1: PLT CDF by scenario (ms)")
        + "\n\n"
        + histogram,
    )

    # Shape assertions: who wins, in which order.
    p50 = {s: results[s].plt.percentile(50) for s in SCENARIOS}
    assert p50[Scenario.SPEED_KIT] < p50[Scenario.CLASSIC_CDN]
    assert p50[Scenario.CLASSIC_CDN] < p50[Scenario.BROWSER_ONLY]
    assert p50[Scenario.BROWSER_ONLY] < p50[Scenario.NO_CACHE]
    # Speed Kit's median speedup over no caching is substantial (the
    # paper reports ~1.5-3x in the field).
    assert p50[Scenario.NO_CACHE] / p50[Scenario.SPEED_KIT] > 1.5

    # Benchmark: the timed kernel is one full Speed Kit replay.
    catalog, users, trace = workload
    from repro.harness import SimulationRunner

    def kernel():
        spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, seed=123)
        return SimulationRunner(spec, catalog, users, trace).run()

    benchmark.pedantic(kernel, rounds=1, iterations=1)


def test_bench_e1_replicated(benchmark):
    """E1b — the headline comparison with 95 % confidence intervals.

    Five independently generated workloads per scenario; the Speed Kit
    vs. classic-CDN gap must exceed the combined interval widths, i.e.
    the headline result is not a seed artifact.
    """
    from repro.harness import format_table, replicate
    from repro.workload import (
        CatalogConfig,
        UserPopulationConfig,
        WorkloadConfig,
    )

    small = dict(
        n_seeds=5,
        catalog_config=CatalogConfig(n_products=60),
        population_config=UserPopulationConfig(n_users=20),
        workload_config=WorkloadConfig(duration=1200.0, session_rate=0.2),
    )
    replicated = {
        scenario: replicate(ScenarioSpec(scenario=scenario), **small)
        for scenario in (Scenario.CLASSIC_CDN, Scenario.SPEED_KIT)
    }
    rows = [replicated[s].summary_row() for s in replicated]
    emit(
        "e1_replicated",
        format_table(rows, title="E1b: 5-seed replication (mean ± CI95)"),
    )

    # Paired analysis: both scenarios replayed the *same* per-seed
    # workloads, so per-seed differences cancel workload variance.
    from repro.harness import MetricSummary

    classic = replicated[Scenario.CLASSIC_CDN].metrics["plt_p50"]
    speed_kit = replicated[Scenario.SPEED_KIT].metrics["plt_p50"]
    diffs = MetricSummary(
        "paired_diff",
        values=[a - b for a, b in zip(classic.values, speed_kit.values)],
    )
    # Speed Kit wins on every seed, and the mean gap is significant.
    assert all(diff > 0 for diff in diffs.values)
    assert diffs.mean > diffs.ci95_half_width
    assert replicated[Scenario.SPEED_KIT].total_violations == 0

    benchmark.pedantic(
        lambda: [replicated[s].summary_row() for s in replicated],
        rounds=3,
        iterations=5,
    )
