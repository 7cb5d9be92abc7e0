"""Tests for the conversion model and A/B comparison."""

import pytest

from repro.harness import RunResult, abtest, compare_scenarios
from repro.harness.abtest import conversion_probability, expected_rate
from repro.sim import MetricRegistry


def make_result(name, plts):
    metrics = MetricRegistry()
    result = RunResult(
        scenario_name=name, metrics=metrics, plt=metrics.histogram("plt")
    )
    result.plt.extend(plts)
    return result


class TestConversionModel:
    def test_base_rate_at_reference(self):
        assert conversion_probability(1.0) == pytest.approx(0.03)

    def test_faster_pages_convert_better(self):
        fast = conversion_probability(0.5)
        slow = conversion_probability(4.0)
        assert fast > slow

    def test_probability_stays_in_unit_interval(self, monkeypatch):
        monkeypatch.setattr(abtest, "SENSITIVITY", 2.0)
        for plt in (0.0, 0.1, 1.0, 10.0, 100.0):
            assert 0.0 <= conversion_probability(plt) <= 1.0

    def test_one_second_costs_about_twenty_percent(self):
        at_ref = conversion_probability(1.0)
        one_slower = conversion_probability(2.0)
        assert (at_ref - one_slower) / at_ref == pytest.approx(0.21, abs=0.05)

    def test_base_rate_is_read_at_use(self, monkeypatch):
        monkeypatch.setattr(abtest, "BASE_RATE", 0.05)
        assert conversion_probability(1.0) == pytest.approx(0.05)

    def test_reference_plt_is_read_at_use(self, monkeypatch):
        monkeypatch.setattr(abtest, "REFERENCE_PLT", 2.0)
        assert conversion_probability(2.0) == pytest.approx(0.03)
        assert conversion_probability(1.0) > 0.03

    def test_expected_rate(self):
        assert expected_rate([]) == 0.0
        rate = expected_rate([1.0, 1.0])
        assert rate == pytest.approx(0.03)


class TestCompareScenarios:
    def test_faster_treatment_wins(self):
        control = make_result("classic-cdn", [2.0, 2.2, 1.8, 2.1])
        treatment = make_result("speed-kit", [0.9, 1.0, 1.1, 0.8])
        row = compare_scenarios(control, treatment)
        assert row["plt_speedup"] > 1.5
        assert row["conversion_uplift_pct"] > 0
        assert row["control"] == "classic-cdn"

    def test_empty_variant_rejected(self):
        control = make_result("a", [1.0])
        empty = make_result("b", [])
        with pytest.raises(ValueError):
            compare_scenarios(control, empty)
