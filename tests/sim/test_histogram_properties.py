"""Property tests for ``Histogram.percentile``, the one percentile
definition in the repo, checked over seeded random data:

1. **Definition** — ``percentile(q)`` is the linear interpolation
   between the two closest ranks of the sorted values (R type 7, which
   is also ``statistics.quantiles(method="inclusive")``), so its rank
   error is at most one.
2. **Exact merge** — ``merge(a, b)`` answers every query as one
   histogram fed both observation streams, in either order.
"""

import math
import random
import statistics

import pytest

from repro.sim import Histogram

QS = [0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0]


def histogram_of(values, name="h"):
    histogram = Histogram(name)
    histogram.extend(values)
    return histogram


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


def rank_error(ordered, value, q):
    """Distance (in ranks) from the target rank ``q/100 · (n-1)`` to
    the returned value's feasible rank interval in ``ordered``."""
    target = (q / 100.0) * (len(ordered) - 1)
    # Feasible 0-based ranks of `value`: [#strictly-less, #less-or-equal).
    lo = sum(1 for v in ordered if v < value)
    hi = sum(1 for v in ordered if v <= value) - 1
    if hi < lo:  # value not present: between ranks lo-1 and lo
        lo, hi = lo - 1, lo
    if lo <= target <= hi:
        return 0.0
    return min(abs(target - lo), abs(target - hi))


class TestPercentileDefinition:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_inclusive_statistics_quantiles(self, seed):
        for name, values in datasets(seed).items():
            histogram = histogram_of(values)
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            for q in range(1, 100):
                assert histogram.percentile(q) == pytest.approx(
                    cuts[q - 1], rel=1e-12, abs=1e-12
                ), f"{name} q={q}"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rank_error_at_most_one(self, seed):
        for name, values in datasets(seed).items():
            histogram = histogram_of(values)
            ordered = sorted(values)
            for q in QS:
                got = histogram.percentile(q)
                rank = (q / 100.0) * (len(ordered) - 1)
                below = ordered[math.floor(rank)]
                above = ordered[math.ceil(rank)]
                assert below <= got <= above, f"{name} q={q}"
                error = rank_error(ordered, got, q)
                assert error <= 1.0, f"{name} q={q}: rank error {error}"

    def test_monotone_in_q(self):
        for name, values in datasets(8).items():
            histogram = histogram_of(values)
            answers = [histogram.percentile(q) for q in range(101)]
            assert answers == sorted(answers), name

    def test_exact_on_ties(self):
        histogram = histogram_of([2.5] * 100)
        for q in QS:
            assert histogram.percentile(q) == 2.5

    def test_extremes_are_exact(self):
        rng = random.Random(9)
        values = [rng.lognormvariate(0, 1) for _ in range(500)]
        histogram = histogram_of(values)
        assert histogram.percentile(0.0) == min(values)
        assert histogram.percentile(100.0) == max(values)
        assert histogram.min() == min(values)
        assert histogram.max() == max(values)

    def test_zeros_and_negatives(self):
        histogram = histogram_of([2.0, -1.0, 0.0, -2.0, 1.0, 0.0])
        assert histogram.percentile(0.0) == -2.0
        assert histogram.percentile(50.0) == 0.0
        assert histogram.percentile(100.0) == 2.0
        assert histogram.mean() == 0.0


class TestExactMerge:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_merge_equals_concatenated_ingest(self, seed):
        rng = random.Random(seed)
        a = [rng.lognormvariate(0, 1.5) for _ in range(1200)]
        b = [rng.gauss(0, 3.0) for _ in range(800)] + [0.0] * 50
        merged = histogram_of(a).merge(histogram_of(b))
        together = histogram_of(a + b)
        assert merged.count == together.count
        for q in QS:
            assert merged.percentile(q) == together.percentile(q), f"q={q}"
        assert merged.min() == together.min()
        assert merged.max() == together.max()
        # Both now hold the same sorted values, so the mean agrees to
        # the bit; the running sums differ only in association.
        assert merged.mean() == together.mean()
        assert merged.sum == pytest.approx(together.sum)

    def test_merge_is_order_independent(self):
        rng = random.Random(7)
        a = [rng.uniform(0, 10) for _ in range(500)]
        b = [rng.uniform(5, 50) for _ in range(500)]
        ab = histogram_of(a).merge(histogram_of(b))
        ba = histogram_of(b).merge(histogram_of(a))
        for q in QS:
            assert ab.percentile(q) == ba.percentile(q)
        assert ab.mean() == ba.mean()

    def test_merge_leaves_the_other_histogram_unchanged(self):
        other = histogram_of([3.0, 1.0, 2.0], name="other")
        histogram_of([5.0, 4.0]).merge(other)
        assert other.values == (3.0, 1.0, 2.0)
        assert other.count == 3
        assert other.sum == 6.0
