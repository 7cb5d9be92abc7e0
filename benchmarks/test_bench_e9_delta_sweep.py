"""E9 — The Δ knob: staleness bound vs. protocol overhead.

Reproduces the protocol-tuning figure: smaller Δ tightens the staleness
bound but costs more sketch downloads (fetches and bytes) and more
revalidation traffic; larger Δ amortizes the overhead. The ablations
(purge-only / sketch-only) quantify what each half of the coherence
mechanism contributes.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import emit

DELTAS = (10.0, 30.0, 60.0, 120.0, 300.0)


@pytest.fixture(scope="module")
def sweep(run_cached):
    return {
        delta: run_cached(
            ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=delta)
        )
        for delta in DELTAS
    }


def revalidations_of(result) -> int:
    return result.counted("speedkit.revalidations")


def test_bench_e9_delta_sweep(sweep, run_cached, benchmark):
    rows = []
    for delta in DELTAS:
        result = sweep[delta]
        rows.append(
            {
                "delta_s": delta,
                "sketch_fetches": result.sketch_fetches,
                "sketch_kib": round(result.sketch_bytes / 1024, 1),
                "revalidations": revalidations_of(result),
                "max_staleness_s": round(result.max_staleness, 3),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
            }
        )
    for scenario, label in (
        (Scenario.SPEED_KIT_PURGE_ONLY, "purge-only"),
        (Scenario.SPEED_KIT_SKETCH_ONLY, "sketch-only"),
    ):
        result = run_cached(ScenarioSpec(scenario=scenario))
        rows.append(
            {
                "delta_s": label,
                "sketch_fetches": result.sketch_fetches,
                "sketch_kib": round(result.sketch_bytes / 1024, 1),
                "revalidations": revalidations_of(result),
                "max_staleness_s": round(result.max_staleness, 3),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
            }
        )
    emit(
        "e9_delta_sweep",
        format_table(rows, title="E9: Δ sweep + coherence ablations"),
    )

    # Smaller Δ -> more sketch downloads.
    fetches = [sweep[d].sketch_fetches for d in DELTAS]
    assert fetches == sorted(fetches, reverse=True)
    # All Δ settings honor their bound.
    for delta in DELTAS:
        assert sweep[delta].max_staleness <= delta + 0.080 + 1.0
    # The ablations serve staler data than the full protocol at Δ=60.
    purge_only = run_cached(
        ScenarioSpec(scenario=Scenario.SPEED_KIT_PURGE_ONLY)
    )
    sketch_only = run_cached(
        ScenarioSpec(scenario=Scenario.SPEED_KIT_SKETCH_ONLY)
    )
    full = sweep[60.0]
    assert purge_only.stale_read_fraction() >= full.stale_read_fraction()
    assert sketch_only.stale_read_fraction() >= full.stale_read_fraction()

    benchmark.pedantic(
        lambda: [revalidations_of(sweep[d]) for d in DELTAS],
        rounds=3,
        iterations=5,
    )
