"""The evaluation harness: scenarios, trace replay, result tables.

Everything the benchmark suite needs to regenerate the paper's numbers:
scenario definitions (baselines and Speed Kit variants), a
:class:`SimulationRunner` that replays one workload trace against one
scenario, aggregated :class:`RunResult` statistics, a latency→
conversion model for the field A/B experiment, and plain-text table
rendering for benchmark output.
"""

from repro.harness.abtest import compare_scenarios
from repro.harness.plots import cdf_table, sparkline, text_histogram
from repro.harness.replication import (
    MetricSummary,
    ReplicatedResult,
    replicate,
)
from repro.harness.report import render_report
from repro.harness.results import RunResult
from repro.harness.runner import SimulationRunner
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.harness.tables import format_table

__all__ = [
    "MetricSummary",
    "ReplicatedResult",
    "RunResult",
    "Scenario",
    "ScenarioSpec",
    "SimulationRunner",
    "cdf_table",
    "compare_scenarios",
    "format_table",
    "render_report",
    "replicate",
    "sparkline",
    "text_histogram",
]
