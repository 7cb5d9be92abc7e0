"""E21 — Request-path tracing: overhead and per-tier latency attribution.

Replays the standard Speed Kit workload twice at the same seed — once
with the no-op tracer (the production default) and once with span
recording on — then attributes every page load's PLT to the tier the
time was actually spent in by walking the span tree's critical path.

The claims under test:

* tracing is observation-only: the traced run reproduces the untraced
  run's simulation results exactly (same PLTs, same reads, same
  coherence verdict) — spans consume no simulated time and draw no
  random numbers;
* the per-tier attribution is complete: summed over tiers it equals
  the summed PLT, per page view and in aggregate;
* the exported JSONL trace (uploaded as a CI artifact) is a faithful
  record: the zero-violation coherence verdict is recoverable from it
  (exercised span-by-span in ``tests/obs/test_trace_invariants.py``).
"""

import pytest

from repro.harness import Scenario, ScenarioSpec, format_table
from repro.obs import dump_jsonl, pageview_attributions

from benchmarks.conftest import RESULTS_DIR, emit


@pytest.fixture(scope="module")
def results(run_cached):
    return {
        # Its own label, hence its own memo entry: ``plt.values`` is
        # compared in arrival order below, and a result shared with
        # other tables has been sorted in place by their percentiles.
        "plain": run_cached(
            ScenarioSpec(scenario=Scenario.SPEED_KIT, label="speed-kit")
        ),
        "traced": run_cached(
            ScenarioSpec(
                scenario=Scenario.SPEED_KIT,
                trace_requests=True,
                label="speed-kit+traced",
            )
        ),
    }


def test_bench_e21_tracing(results, benchmark):
    plain = results["plain"]
    traced = results["traced"]

    # Tracing is pure observation: the simulation is bit-identical.
    assert traced.plt.values == plain.plt.values
    assert traced.page_views == plain.page_views
    assert traced.reads_checked == plain.reads_checked
    assert traced.served_by_layer == plain.served_by_layer
    assert traced.delta_violations == plain.delta_violations == 0

    # The trace exists only on the traced run and covers every load.
    assert plain.trace_records is None
    records = traced.trace_records
    assert records
    attributions = pageview_attributions(records)
    assert len(attributions) == traced.page_views
    for record, attribution in attributions:
        assert sum(attribution.values()) == pytest.approx(
            record["attrs"]["plt"], abs=1e-9
        )

    # Aggregate attribution is complete: tiers sum to total PLT.
    breakdown = traced.tier_breakdown
    total_plt = sum(traced.plt.values)
    assert sum(breakdown.values()) == pytest.approx(total_plt, abs=1e-6)

    trace_path = RESULTS_DIR / "e21_trace.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)
    dump_jsonl(records, trace_path)

    registry = traced.metrics
    rows = []
    for tier in sorted(breakdown, key=breakdown.get, reverse=True):
        sketch = registry.sketch(f"tier.plt.{tier}")
        rows.append(
            {
                "tier": tier,
                "total_s": round(breakdown[tier], 3),
                "share": round(breakdown[tier] / total_plt, 3),
                "loads": sketch.count,
                "p50_ms": round(sketch.percentile(50) * 1000, 2),
                "p95_ms": round(sketch.percentile(95) * 1000, 2),
                "p99_ms": round(sketch.percentile(99) * 1000, 2),
            }
        )
    rows.append(
        {
            "tier": "(all = PLT)",
            "total_s": round(total_plt, 3),
            "share": 1.0,
            "loads": traced.page_views,
            "p50_ms": round(traced.plt.percentile(50) * 1000, 2),
            "p95_ms": round(traced.plt.percentile(95) * 1000, 2),
            "p99_ms": round(traced.plt.percentile(99) * 1000, 2),
        }
    )
    emit(
        "e21_tracing",
        format_table(
            rows,
            title=(
                "E21: per-tier PLT attribution from the span trace "
                f"({len(records)} spans, dump: {trace_path.name})"
            ),
        ),
    )

    benchmark.pedantic(
        lambda: pageview_attributions(records),
        rounds=3,
        iterations=1,
    )
