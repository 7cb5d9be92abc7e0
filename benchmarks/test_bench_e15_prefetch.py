"""E15 — Predictive prefetching: trading bandwidth for latency.

Production Speed Kit prefetches likely-next pages into the service
worker cache. On identical traffic, prefetching improves page load
times (more SW hits) at the cost of extra background requests — both
sides are measured here, along with the untouched coherence bound
(prefetched responses travel the normal accelerated path).
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def variants(run_cached):
    plain = run_cached(ScenarioSpec(scenario=Scenario.SPEED_KIT))
    prefetching = run_cached(
        ScenarioSpec(
            scenario=Scenario.SPEED_KIT,
            prefetch=True,
            label="speed-kit-prefetch",
        )
    )
    return plain, prefetching


def test_bench_e15_prefetch(variants, benchmark):
    plain, prefetching = variants
    rows = []
    for result in (plain, prefetching):
        rows.append(
            {
                "mode": result.scenario_name,
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "plt_p95_ms": round(result.plt.percentile(95) * 1000, 1),
                "sw_hits": result.served_by_layer.get("sw", 0),
                "origin_reqs": result.origin_requests,
                "violations": result.delta_violations,
            }
        )
    emit(
        "e15_prefetch",
        format_table(rows, title="E15: predictive prefetching"),
    )

    # Prefetching buys page-load latency...
    assert prefetching.plt.percentile(50) <= plain.plt.percentile(50)
    assert prefetching.served_by_layer.get("sw", 0) > (
        plain.served_by_layer.get("sw", 0)
    )
    # ...by spending extra background requests.
    assert prefetching.origin_requests >= plain.origin_requests
    # Coherence is untouched: prefetches use the normal protocol path.
    assert prefetching.delta_violations == 0

    benchmark.pedantic(
        lambda: (plain.summary_row(), prefetching.summary_row()),
        rounds=5,
        iterations=10,
    )
