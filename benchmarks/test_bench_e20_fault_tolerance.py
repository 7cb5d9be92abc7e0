"""E20 — Fault tolerance: availability and coherence under injected faults.

Replays the standard workload through the full Speed Kit stack under
each seeded fault profile — origin outages and brownouts, flaky links
with latency spikes, a failing PoP, and everything at once — with the
graceful-degradation machinery enabled: retry-with-backoff on origin
exchanges, a per-PoP circuit breaker, bounded stale-if-error serving
(grace window folded into the checked Δ bound), and unbounded offline
serving as the last resort.

The claims under test:

* under the default ``outage`` profile (origin dark for 10% of the
  run) Speed Kit keeps serving ≥95% of responses while the no-cache
  baseline drops to roughly the outage complement;
* graceful degradation never buys availability with coherence — the
  Δ-atomicity checker reports **zero violations** under every profile
  (bound widened only by the configured grace window);
* the breaker actually trips on a failing PoP and the stack falls back
  to origin pass-through instead of erroring.
"""

import pytest

from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, format_table

from benchmarks.conftest import emit

#: Grace window for bounded stale-if-error serving (seconds).
GRACE = 60.0
PROFILE_NAMES = ["none", "outage", "flaky", "pop-down", "chaos"]


@pytest.fixture(scope="module")
def results(run_cached):
    out = {}
    for name in PROFILE_NAMES:
        out[name] = run_cached(
            ScenarioSpec(
                scenario=Scenario.SPEED_KIT,
                fault_profile=PROFILES[name],
                stale_if_error=GRACE,
                retry=RetryPolicy(),
                label=f"speed-kit+{name}",
            )
        )
    # The baseline rides out the same outage with no cache, no retry,
    # and no degraded serving: raw origin availability.
    out["no-cache+outage"] = run_cached(
        ScenarioSpec(
            scenario=Scenario.NO_CACHE,
            fault_profile=PROFILES["outage"],
            label="no-cache+outage",
        )
    )
    return out


def degraded_servings(result):
    """Responses kept alive by the degradation ladder (bounded
    stale-if-error at the service worker plus unbounded offline)."""
    return sum(
        result.counted(f"speedkit.{which}")
        for which in ("stale_if_error_served", "offline_served")
    )


def test_bench_e20_fault_tolerance(results, benchmark):
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "config": result.scenario_name,
                "availability": round(result.availability(), 4),
                "failed_5xx": result.failed_responses,
                "plt_p50_ms": round(result.plt.percentile(50) * 1000, 1),
                "hit_ratio": round(result.cache_hit_ratio(), 3),
                "degraded": degraded_servings(result),
                "retries": int(
                    result.metrics.counter("transport.retries").value
                ),
                "breaker_trips": int(
                    result.metrics.counter("breaker.trips").value
                ),
                "max_staleness_s": round(result.max_staleness, 3),
                "violations": result.delta_violations,
            }
        )
    emit(
        "e20_fault_tolerance",
        format_table(
            rows,
            title=(
                "E20: availability and coherence under fault profiles "
                f"(stale-if-error grace {GRACE:.0f}s)"
            ),
        ),
    )

    # Coherence is never traded away: zero Δ violations under every
    # profile, with the bound widened only by the grace window.
    for result in results.values():
        assert result.delta_violations == 0

    # The fault-free run is a control: nothing fails, nothing retries.
    clean = results["none"]
    assert clean.availability() == pytest.approx(1.0)
    assert clean.metrics.counter("transport.retries").value == 0

    # Headline claim: origin dark 10% of the run, Speed Kit keeps
    # serving ≥95% while the no-cache baseline drops to roughly the
    # outage complement.
    outage = results["outage"]
    baseline = results["no-cache+outage"]
    assert outage.availability() >= 0.95
    assert baseline.availability() == pytest.approx(0.90, abs=0.04)
    assert outage.availability() > baseline.availability()
    # The gap is earned by degraded servings, not luck: the ladder
    # actually answered requests the baseline would have failed.
    assert degraded_servings(outage) > 0
    assert degraded_servings(baseline) == 0

    # Flaky links: retries ride out the loss; availability stays high.
    flaky = results["flaky"]
    assert flaky.metrics.counter("transport.retries").value > 0
    assert flaky.availability() >= 0.98

    # A failing PoP trips the breaker; pass-through keeps the site up.
    pop_down = results["pop-down"]
    assert pop_down.metrics.counter("breaker.trips").value > 0
    assert pop_down.metrics.counter("breaker.pass_through").value > 0
    assert pop_down.availability() >= 0.98

    # Everything at once still degrades gracefully, not catastrophically.
    assert results["chaos"].availability() >= 0.90

    benchmark.pedantic(
        lambda: [results[name].availability() for name in results],
        rounds=5,
        iterations=10,
    )
