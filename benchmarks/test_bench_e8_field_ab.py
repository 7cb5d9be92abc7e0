"""E8 — Field experience: the simulated A/B test.

Reproduces the paper's field-experience table: classic delivery vs.
Speed Kit on identical traffic, reported as PLT uplift and modeled
conversion uplift (latency→conversion response per published WPO
studies). The paper reports strong double-digit speedups translating
into measurable conversion gains; the shape to reproduce is
"Speed Kit faster, conversions up".
"""

import pytest

from repro.harness import (
    ConversionModel,
    Scenario,
    ScenarioSpec,
    compare_scenarios,
    format_table,
)

from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def variants(run_cached):
    control = run_cached(ScenarioSpec(scenario=Scenario.CLASSIC_CDN))
    treatment = run_cached(ScenarioSpec(scenario=Scenario.SPEED_KIT))
    return control, treatment


def test_bench_e8_field_ab(variants, benchmark):
    control, treatment = variants
    model = ConversionModel()
    row = compare_scenarios(control, treatment, model)
    emit(
        "e8_field_ab",
        format_table([row], title="E8: simulated field A/B test"),
    )

    assert row["plt_speedup"] > 1.0
    assert row["conversion_uplift_pct"] > 0.0
    # Per-connection medians, reported (not asserted: the per-group
    # user samples differ, so ordering between groups is noisy).
    conn_rows = []
    for connection in ("fiber", "cable", "lte", "3g"):
        a = control.metrics.get_histogram(f"plt.conn.{connection}")
        b = treatment.metrics.get_histogram(f"plt.conn.{connection}")
        if a is not None and b is not None and len(a) and len(b):
            conn_rows.append(
                {
                    "connection": connection,
                    "control_p50_ms": round(a.percentile(50) * 1000, 1),
                    "treatment_p50_ms": round(b.percentile(50) * 1000, 1),
                }
            )
    emit(
        "e8_field_ab_by_connection",
        format_table(conn_rows, title="E8: per-connection medians"),
    )

    benchmark.pedantic(
        lambda: compare_scenarios(control, treatment, model),
        rounds=5,
        iterations=10,
    )
