"""Degraded servings must not inflate the cache hit ratio.

Regression for a double-counting bug: the service worker's graceful-
degradation path counted every stale-if-error/offline serving as a
fresh cache "hit", so outages *raised* the reported hit ratio. Now
degraded servings are tallied separately (``served_degraded_by_layer``,
``serve.degraded.*`` counters) and excluded from the fresh-hit
numerator.
"""

from repro.harness import RunResult
from repro.sim.metrics import MetricRegistry


def result_with(served, degraded):
    registry = MetricRegistry()
    result = RunResult(
        scenario_name="test",
        metrics=registry,
        plt=registry.histogram("plt.all"),
    )
    result.served_by_layer = dict(served)
    result.served_degraded_by_layer = dict(degraded)
    return result


class TestHitRatioExcludesDegraded:
    def test_degraded_servings_are_not_hits(self):
        result = result_with(
            {"sw": 60, "edge": 20, "origin": 20}, {"sw": 10}
        )
        # 100 total, 80 avoided the origin, but 10 of those were
        # degraded fallbacks: only 70 are verified-fresh hits.
        assert result.cache_hit_ratio() == 0.70
        assert result.degraded_serve_ratio() == 0.10

    def test_no_degraded_keeps_historical_ratio(self):
        result = result_with({"sw": 60, "origin": 40}, {})
        assert result.cache_hit_ratio() == 0.60
        assert result.degraded_serve_ratio() == 0.0

    def test_all_degraded_run_has_zero_hit_ratio(self):
        result = result_with({"sw": 10}, {"sw": 10})
        assert result.cache_hit_ratio() == 0.0
        assert result.degraded_serve_ratio() == 1.0

    def test_to_dict_reports_both_ratios(self):
        result = result_with({"sw": 8, "origin": 2}, {"sw": 3})
        record = result.to_dict()
        assert record["cache_hit_ratio"] == 0.5
        assert record["degraded_serve_ratio"] == 0.3
        assert record["served_degraded_by_layer"] == {"sw": 3}
