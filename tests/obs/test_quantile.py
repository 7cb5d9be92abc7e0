"""Property tests for the streaming quantile sketch.

Two properties from the issue spec, checked over seeded random data:

1. **Rank accuracy** — for every queried quantile, the returned value's
   rank in the sorted reference is within 1% of the target rank.
2. **Exact merge** — ``merge(a, b)`` equals ingesting the concatenation
   of both streams, in any order.
"""

import math
import random

import pytest

from repro.obs import QuantileSketch

QS = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0]


def observe_all(sketch, values):
    for value in values:
        sketch.observe(value)


def datasets(seed):
    rng = random.Random(seed)
    n = 5000
    return {
        "uniform": [rng.uniform(0.001, 10.0) for _ in range(n)],
        "lognormal": [rng.lognormvariate(0.0, 2.0) for _ in range(n)],
        "latency-like": [
            abs(rng.gauss(0.05, 0.02)) + rng.expovariate(20.0)
            for _ in range(n)
        ],
        "heavy-ties": [
            rng.choice([0.0, 0.01, 0.05, 0.25, 1.0]) for _ in range(n)
        ],
        "mixed-sign": [rng.gauss(0.0, 5.0) for _ in range(n)],
        "tiny": [rng.uniform(0.0, 1.0) for _ in range(7)],
    }


def rank_error(values, value, q):
    """Distance (in ranks) from the target rank to the returned
    value's feasible rank interval in the sorted reference."""
    ordered = sorted(values)
    n = len(ordered)
    target = max(1, math.ceil(q * n))
    # Feasible ranks of `value`: (#strictly-less, #less-or-equal].
    lo = sum(1 for v in ordered if v < value) + 1
    hi = sum(1 for v in ordered if v <= value)
    if hi < lo:  # value not present: between ranks lo-1 and lo
        lo = hi = lo - 0.5
    if lo <= target <= hi:
        return 0.0
    return min(abs(target - lo), abs(target - hi))


class TestRankAccuracy:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rank_error_below_one_percent(self, seed):
        for name, values in datasets(seed).items():
            sketch = QuantileSketch()
            observe_all(sketch, values)
            budget = max(1.0, 0.01 * len(values))
            for q in QS:
                error = rank_error(values, sketch.quantile(q), q)
                assert error <= budget, (
                    f"{name} q={q}: rank error {error} > {budget}"
                )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relative_value_error_is_bounded(self, seed):
        """On tie-free data the returned value is within the sketch's
        relative-accuracy band of some sample near the target rank."""
        rng = random.Random(seed)
        values = sorted(rng.uniform(1.0, 100.0) for _ in range(2000))
        sketch = QuantileSketch(relative_accuracy=0.0025)
        observe_all(sketch, values)
        for q in QS:
            got = sketch.quantile(q)
            target = max(1, math.ceil(q * len(values)))
            window = values[
                max(0, target - 25) : min(len(values), target + 25)
            ]
            assert any(
                abs(got - ref) <= 0.006 * abs(ref) for ref in window
            ), f"q={q}: {got} not near ranks around {target}"

    def test_exact_on_ties(self):
        sketch = QuantileSketch()
        observe_all(sketch, [2.5] * 100)
        for q in QS:
            assert sketch.quantile(q) == 2.5

    def test_extremes_are_exact(self):
        rng = random.Random(9)
        values = [rng.lognormvariate(0, 1) for _ in range(500)]
        sketch = QuantileSketch()
        observe_all(sketch, values)
        assert sketch.quantile(0.0) == pytest.approx(min(values), rel=0.006)
        assert sketch.quantile(1.0) == pytest.approx(max(values), rel=0.006)
        assert sketch.min == min(values)
        assert sketch.max == max(values)


class TestExactMerge:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_merge_equals_concatenated_ingest(self, seed):
        rng = random.Random(seed)
        a = [rng.lognormvariate(0, 1.5) for _ in range(1200)]
        b = [rng.gauss(0, 3.0) for _ in range(800)] + [0.0] * 50
        merged = QuantileSketch()
        observe_all(merged, a)
        other = QuantileSketch()
        observe_all(other, b)
        merged.merge(other)
        together = QuantileSketch()
        observe_all(together, a + b)
        assert merged.count == together.count
        assert merged.sum == pytest.approx(together.sum)
        assert merged.min == together.min
        assert merged.max == together.max
        for q in QS:
            assert merged.quantile(q) == together.quantile(q), f"q={q}"

    def test_merge_is_order_independent(self):
        rng = random.Random(7)
        a = [rng.uniform(0, 10) for _ in range(500)]
        b = [rng.uniform(5, 50) for _ in range(500)]
        ab = QuantileSketch()
        observe_all(ab, a)
        other_b = QuantileSketch()
        observe_all(other_b, b)
        ab.merge(other_b)
        ba = QuantileSketch()
        observe_all(ba, b)
        other_a = QuantileSketch()
        observe_all(other_a, a)
        ba.merge(other_a)
        for q in QS:
            assert ab.quantile(q) == ba.quantile(q)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0025).merge(QuantileSketch(0.01))

    def test_merge_rejects_non_sketch(self):
        with pytest.raises(TypeError):
            QuantileSketch().merge([1, 2, 3])


class TestEdgeCases:
    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(0.5)

    def test_out_of_range_quantile_raises(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_invalid_accuracy_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)

    def test_percentile_matches_quantile(self):
        sketch = QuantileSketch()
        observe_all(sketch, range(1, 101))
        assert sketch.percentile(95) == sketch.quantile(0.95)

    def test_summary_shape(self):
        sketch = QuantileSketch()
        assert sketch.summary() == {"count": 0}
        observe_all(sketch, [1.0, 2.0, 3.0, 4.0])
        summary = sketch.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_zeros_and_negatives(self):
        sketch = QuantileSketch()
        observe_all(sketch, [-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
        assert sketch.quantile(0.0) == pytest.approx(-2.0, rel=0.006)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(2.0, rel=0.006)
