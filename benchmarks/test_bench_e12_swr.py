"""E12 — Stale-while-revalidate: latency vs. freshness ablation.

The production system can answer revalidation-flagged requests from
cache immediately and refresh out of band, trading up to one extra Δ
of staleness for zero revalidation latency on the critical path. This
benchmark quantifies both sides of that trade on identical traffic.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def variants(run_cached):
    inline = run_cached(ScenarioSpec(scenario=Scenario.SPEED_KIT))
    swr_spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        stale_while_revalidate=True,
        label="speed-kit-swr",
    )
    swr = run_cached(swr_spec)
    return inline, swr


def test_bench_e12_swr(variants, benchmark):
    inline, swr = variants
    rows = []
    for result in (inline, swr):
        rows.append(
            {
                "mode": result.scenario_name,
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "plt_p95_ms": round(result.plt.percentile(95) * 1000, 1),
                "stale_frac": round(result.stale_read_fraction(), 4),
                "max_staleness_s": round(result.max_staleness, 3),
                "violations": result.delta_violations,
            }
        )
    emit(
        "e12_swr",
        format_table(rows, title="E12: inline revalidation vs SWR"),
    )

    # SWR never revalidates on the critical path, so it cannot be
    # slower; it serves (boundedly) staler data in exchange.
    assert swr.plt.percentile(95) <= inline.plt.percentile(95) + 1e-9
    assert swr.stale_read_fraction() >= inline.stale_read_fraction()
    # SWR's bound is the verification budget (2Δ) plus purge + transit.
    assert swr.max_staleness <= 2 * 60.0 + 0.080 + 1.0
    assert swr.delta_violations == 0
    # Inline mode keeps the strict bound and zero violations.
    assert inline.delta_violations == 0

    benchmark.pedantic(
        lambda: (inline.summary_row(), swr.summary_row()),
        rounds=5,
        iterations=10,
    )
