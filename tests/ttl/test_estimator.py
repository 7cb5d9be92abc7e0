"""Tests for the write-rate TTL estimator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ttl import KeyWriteStats, TtlEstimator


class TestKeyWriteStats:
    def test_first_write_sets_no_gap(self):
        stats = KeyWriteStats()
        stats.observe(10.0, alpha=0.2)
        assert stats.writes == 1
        assert stats.mean_gap is None
        assert stats.write_rate() is None

    def test_second_write_establishes_gap(self):
        stats = KeyWriteStats()
        stats.observe(10.0, alpha=0.2)
        stats.observe(30.0, alpha=0.2)
        assert stats.mean_gap == 20.0
        assert stats.write_rate() == pytest.approx(1 / 20.0)

    def test_ewma_smooths(self):
        stats = KeyWriteStats()
        stats.observe(0.0, alpha=0.5)
        stats.observe(10.0, alpha=0.5)  # gap 10
        stats.observe(30.0, alpha=0.5)  # gap 20 -> 0.5*20 + 0.5*10 = 15
        assert stats.mean_gap == 15.0

    def test_simultaneous_writes_do_not_divide_by_zero(self):
        stats = KeyWriteStats()
        stats.observe(5.0, alpha=0.2)
        stats.observe(5.0, alpha=0.2)
        assert stats.write_rate() is not None
        assert stats.write_rate() > 0


class TestTtlEstimator:
    def test_unknown_key_gets_default(self):
        estimator = TtlEstimator(default_ttl=500.0, max_ttl=1000.0)
        assert estimator.ttl_for("never-written") == 500.0

    def test_single_write_still_default(self):
        estimator = TtlEstimator(default_ttl=500.0, max_ttl=1000.0)
        estimator.observe_write("k", now=0.0)
        assert estimator.ttl_for("k") == 500.0

    def test_formula_matches_poisson_model(self):
        estimator = TtlEstimator(
            target_invalidation_prob=0.3, min_ttl=0.001, max_ttl=10**9
        )
        estimator.observe_write("k", now=0.0)
        estimator.observe_write("k", now=100.0)  # rate = 1/100
        expected = -math.log(1 - 0.3) * 100.0
        assert estimator.ttl_for("k") == pytest.approx(expected)

    def test_hot_keys_get_short_ttls(self):
        estimator = TtlEstimator(min_ttl=0.001, min_worthwhile=0.0001)
        for t in range(10):
            estimator.observe_write("hot", now=float(t))
        for t in range(0, 10_000, 1000):
            estimator.observe_write("cold", now=float(t))
        assert estimator.ttl_for("hot") < estimator.ttl_for("cold")

    def test_clamping(self):
        estimator = TtlEstimator(
            min_ttl=10.0, max_ttl=100.0, default_ttl=10**6, min_worthwhile=0.01
        )
        # default exceeds max for unknown keys? default is used as-is
        # only via raw_estimate; ttl_for clamps it.
        assert estimator.ttl_for("unknown") == 100.0
        estimator.observe_write("fast", now=0.0)
        estimator.observe_write("fast", now=1.0)
        assert estimator.ttl_for("fast") == 10.0

    def test_uncacheable_below_worthwhile(self):
        estimator = TtlEstimator(min_worthwhile=0.5, min_ttl=0.1)
        estimator.observe_write("scorching", now=0.0)
        estimator.observe_write("scorching", now=0.001)
        assert estimator.ttl_for("scorching") == 0.0

    def test_higher_theta_longer_ttl(self):
        lax = TtlEstimator(target_invalidation_prob=0.9, max_ttl=10**9)
        strict = TtlEstimator(target_invalidation_prob=0.1, max_ttl=10**9)
        for estimator in (lax, strict):
            estimator.observe_write("k", now=0.0)
            estimator.observe_write("k", now=60.0)
        assert lax.raw_estimate("k") > strict.raw_estimate("k")

    def test_validation(self):
        with pytest.raises(ValueError):
            TtlEstimator(target_invalidation_prob=0.0)
        with pytest.raises(ValueError):
            TtlEstimator(target_invalidation_prob=1.0)
        with pytest.raises(ValueError):
            TtlEstimator(min_ttl=10.0, max_ttl=1.0)
        with pytest.raises(ValueError):
            TtlEstimator(ewma_alpha=0.0)

    def test_stats_for(self):
        estimator = TtlEstimator()
        estimator.observe_write("a", 0.0)
        estimator.observe_write("b", 0.0)
        estimator.observe_write("a", 1.0)
        assert estimator.stats_for("a").writes == 2
        assert estimator.stats_for("ghost") is None

    @given(
        gaps=st.lists(st.floats(0.1, 10_000.0), min_size=2, max_size=30),
        theta=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50)
    def test_ttl_always_within_bounds_or_zero(self, gaps, theta):
        estimator = TtlEstimator(
            target_invalidation_prob=theta, min_ttl=1.0, max_ttl=1000.0
        )
        now = 0.0
        for gap in gaps:
            now += gap
            estimator.observe_write("k", now=now)
        ttl = estimator.ttl_for("k")
        assert ttl == 0.0 or 1.0 <= ttl <= 1000.0
