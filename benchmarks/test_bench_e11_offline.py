"""E11 — Offline resilience: availability through an origin outage.

Reproduces the field-experience claim that Speed Kit keeps sites
browsable when the backend degrades: a 5-minute origin outage is
injected mid-trace, and the fraction of failed responses is compared
across stacks. The service worker keeps answering from its cache;
classic stacks surface errors for everything they cannot serve fresh.
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import STANDARD_WORKLOAD, emit

#: Outage: the twelfth of the trace before its midpoint — 5 minutes
#: (t=1500..1800s) of the hour-long trace, and inside the shorter
#: smoke trace too.
OUTAGE = (
    STANDARD_WORKLOAD.duration * 5 / 12,
    STANDARD_WORKLOAD.duration / 2,
)
SCENARIOS = [
    Scenario.NO_CACHE,
    Scenario.CLASSIC_CDN,
    Scenario.SPEED_KIT,
]


@pytest.fixture(scope="module")
def results(run_cached):
    out = {}
    for scenario in SCENARIOS:
        spec = ScenarioSpec(
            scenario=scenario,
            outage=OUTAGE,
            label=f"{scenario.value}+outage",
        )
        out[scenario] = run_cached(spec)
    return out


def test_bench_e11_offline(results, benchmark):
    rows = []
    for scenario in SCENARIOS:
        result = results[scenario]
        rows.append(
            {
                "scenario": result.scenario_name,
                "failed_responses": result.failed_responses,
                "error_rate": round(result.error_rate(), 4),
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
            }
        )
    emit(
        "e11_offline",
        format_table(
            rows,
            title=(
                "E11: availability through a 5-min origin outage "
                f"(t={OUTAGE[0]:.0f}..{OUTAGE[1]:.0f}s)"
            ),
        ),
    )

    no_cache = results[Scenario.NO_CACHE]
    classic = results[Scenario.CLASSIC_CDN]
    speed_kit = results[Scenario.SPEED_KIT]
    # Everyone suffers; Speed Kit suffers least, no caching most.
    assert no_cache.error_rate() > classic.error_rate()
    assert classic.error_rate() > speed_kit.error_rate()
    # Speed Kit keeps the overwhelming majority of responses working.
    assert speed_kit.error_rate() < 0.02
    # Δ-atomicity is still never violated (offline serving only widens
    # availability, and the checker never counted 5xx responses).
    assert speed_kit.delta_violations == 0

    benchmark.pedantic(
        lambda: [results[s].error_rate() for s in SCENARIOS],
        rounds=5,
        iterations=10,
    )
