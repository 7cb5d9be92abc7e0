"""Markdown report generation: one document per evaluation run.

Turns a set of :class:`RunResult` objects (same trace, different
scenarios) into a self-contained markdown report: workload summary,
scenario comparison, hit ratios by content type, coherence outcome,
A/B analysis, and PLT distributions as text figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.harness.abtest import ConversionModel, compare_scenarios
from repro.harness.plots import cdf_table, text_histogram
from repro.harness.results import RunResult
from repro.harness.tables import format_table
from repro.workload.trace import WorkloadTrace


def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def render_report(
    results: Sequence[RunResult],
    trace: Optional[WorkloadTrace] = None,
    model: Optional[ConversionModel] = None,
    title: str = "Speed Kit reproduction report",
) -> str:
    """Render the full markdown report."""
    if not results:
        raise ValueError("need at least one run result")
    sections: List[str] = [f"# {title}", ""]

    if trace is not None:
        sections += [
            "## Workload",
            "",
            f"- duration: {trace.duration:.0f} s simulated",
            f"- page views: {len(trace.page_views())}",
            f"- background product updates: {len(trace.product_updates())}",
            f"- cart writes: {len(trace.cart_adds())}",
            f"- distinct users: {len(trace.users_seen())}",
            "",
        ]

    sections += [
        "## Scenario comparison",
        "",
        _code_block(
            format_table([result.summary_row() for result in results])
        ),
        "",
    ]

    hit_rows = [
        {"scenario": result.scenario_name, **result.hit_ratio_row()}
        for result in results
    ]
    sections += [
        "## Cache hit ratio by content type",
        "",
        _code_block(format_table(hit_rows)),
        "",
    ]

    coherence_rows = [
        {
            "scenario": result.scenario_name,
            "reads_checked": result.reads_checked,
            "stale_frac": round(result.stale_read_fraction(), 4),
            "max_staleness_s": round(result.max_staleness, 3),
            "violations": result.delta_violations,
            "personalized": round(result.personalization_rate(), 3),
        }
        for result in results
    ]
    sections += [
        "## Coherence and personalization",
        "",
        _code_block(format_table(coherence_rows)),
        "",
    ]

    traced = [result for result in results if result.tier_breakdown]
    if traced:
        tiers = sorted(
            {tier for result in traced for tier in result.tier_breakdown}
        )
        tier_rows: List[Dict[str, object]] = []
        for result in traced:
            attribution = result.tier_row()
            row = {"scenario": result.scenario_name}
            for tier in tiers:
                row[f"{tier}_s"] = attribution.get(tier, 0.0)
            row["sum_s"] = round(sum(result.tier_breakdown.values()), 3)
            row["plt_sum_s"] = attribution["plt_sum"]
            tier_rows.append(row)
        sections += [
            "## Per-tier latency attribution",
            "",
            "Critical-path seconds per tier across all traced page "
            "views (from the recorded request spans); `sum_s` matches "
            "`plt_sum_s` because each page view's attribution sums to "
            "its PLT.",
            "",
            _code_block(format_table(tier_rows)),
            "",
        ]

    if any(result.failed_responses for result in results):
        availability_rows = [
            {
                "scenario": result.scenario_name,
                "availability": round(result.availability(), 4),
                "failed_5xx": result.failed_responses,
                "error_rate": round(result.error_rate(), 4),
            }
            for result in results
        ]
        sections += [
            "## Availability under faults",
            "",
            _code_block(format_table(availability_rows)),
            "",
        ]

    if len(results) >= 2 and len(results[-1].plt) and len(results[-2].plt):
        ab = compare_scenarios(
            results[-2], results[-1], model or ConversionModel()
        )
        sections += [
            "## A/B analysis (last two scenarios)",
            "",
            _code_block(format_table([ab])),
            "",
        ]

    with_data = [result for result in results if len(result.plt)]
    if with_data:
        cdf = cdf_table(
            {
                result.scenario_name: [v * 1000 for v in result.plt.values]
                for result in with_data
            },
            unit="ms",
        )
        sections += [
            "## Page load time distributions",
            "",
            _code_block(format_table(cdf)),
            "",
        ]
        for result in with_data:
            sections += [
                _code_block(
                    text_histogram(
                        [v * 1000 for v in result.plt.values],
                        bins=12,
                        title=f"{result.scenario_name} PLT (ms)",
                        unit="ms",
                    )
                ),
                "",
            ]

    return "\n".join(sections).rstrip() + "\n"
