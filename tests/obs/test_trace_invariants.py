"""Trace-derived invariants: attribution sums and the coherence bridge.

The strongest completeness check a trace can pass: rebuild the
Δ-atomicity checker's read log *purely from exported span records* and
re-run the coherence verdict — it must reproduce the live run's
zero-violation outcome, read counts, and staleness numbers. Plus the
per-tier latency attribution must sum to each page view's PLT.
"""

import pytest

from repro.coherence import DeltaAtomicityChecker, version_regressions
from repro.http import Headers, Response, Status, URL
from repro.obs import (
    pageview_attributions,
    reads_from_trace,
    tier_breakdown,
)

from tests.obs.conftest import TRACE_PROFILES, traced_runner


@pytest.fixture(params=TRACE_PROFILES)
def runner(request):
    return traced_runner(request.param)


class TestTierAttribution:
    def test_each_pageview_attribution_sums_to_its_plt(self, runner):
        attributions = pageview_attributions(runner.result.trace_records)
        assert len(attributions) == runner.result.page_views
        for record, attribution in attributions:
            plt = record["attrs"]["plt"]
            assert sum(attribution.values()) == pytest.approx(
                plt, abs=1e-9
            ), f"pageview span {record['span']}"

    def test_breakdown_totals_match_result(self, runner):
        breakdown = tier_breakdown(runner.result.trace_records)
        assert breakdown == runner.result.tier_breakdown
        assert sum(breakdown.values()) == pytest.approx(
            sum(runner.result.plt.values), abs=1e-6
        )

    def test_tier_sketches_are_populated(self, runner):
        names = runner.metrics.sketch_names()
        assert any(name.startswith("tier.plt.") for name in names)
        # Every page view attributes time to its own (client) tier;
        # the other tiers appear only on the loads that touched them.
        assert (
            runner.metrics.sketch("tier.plt.client").count
            == runner.result.page_views
        )
        for name in names:
            if name.startswith("tier.plt."):
                count = runner.metrics.sketch(name).count
                assert 0 < count <= runner.result.page_views, name


def rebuild_checkers(runner):
    """Feed the trace-rebuilt read log through fresh checkers."""
    reads = reads_from_trace(runner.result.trace_records)
    covered = DeltaAtomicityChecker(
        runner.server, delta=runner.checker.delta
    )
    uncovered = DeltaAtomicityChecker(runner.server, delta=float("inf"))
    for read in sorted(reads, key=lambda r: r["read_at"]):
        # Span records store the display form "origin/path?query".
        origin, _, rest = read["url"].partition("/")
        response = Response(
            status=Status.OK,
            headers=Headers({"X-Version-Key": read["version_key"]}),
            url=URL.parse("/" + rest, origin=origin),
            version=read["version"],
        )
        target = covered if read["covered"] else uncovered
        target.record_read(response, read["read_at"], client=read["client"])
    return covered, uncovered


def staleness_values(registry, name):
    return sorted(registry.histogram(name).values)


class TestCoherenceBridge:
    def test_rebuilt_log_matches_live_checker_reads(self, runner):
        """Read for read: the staleness the span-rebuilt checkers
        observe is the multiset the live checkers observed."""
        covered, uncovered = rebuild_checkers(runner)
        assert (
            covered.read_count + uncovered.read_count
            == runner.result.reads_checked
        )
        assert covered.read_count > 100
        live = runner.metrics
        assert staleness_values(covered.metrics, "coherence.staleness") == (
            staleness_values(live, "coherence.staleness")
        )
        assert staleness_values(uncovered.metrics, "coherence.staleness") == (
            staleness_values(live, "coherence.uncovered.staleness")
        )

    def test_rebuilt_log_reproduces_the_verdict(self, runner):
        covered, uncovered = rebuild_checkers(runner)
        assert covered.violation_count == runner.result.delta_violations
        assert covered.violation_count == 0
        covered.assert_delta_atomic()
        assert covered.max_staleness() == pytest.approx(
            runner.result.max_staleness, abs=1e-9
        )
        for name in ("coherence.stale_reads", "coherence.violations"):
            rebuilt = sum(
                checker.metrics.counter(name).value
                for checker in (covered, uncovered)
            )
            assert rebuilt == runner.metrics.counter(name).value, name

    def test_rebuilt_reads_are_monotonic_per_client_and_key(self, runner):
        # Session monotonic reads, concurrency-aware: under overload a
        # user's overlapping page loads may legally complete out of
        # issue order; only a read *issued after* a newer-version read
        # completed may never regress.
        reads = reads_from_trace(runner.result.trace_records)
        assert len(reads) > 100
        for covered in (True, False):
            population = [read for read in reads if read["covered"] is covered]
            assert version_regressions(population) == []

    def test_bridge_is_not_vacuous(self, runner):
        assert runner.result.reads_checked > 100
        assert (
            runner.metrics.counter("invalidation.processed").value > 0
        )
