"""Tests for Bloom filter sizing math."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch import (
    BloomFilter,
    CountingBloomFilter,
    RotatingCacheSketch,
    ServerCacheSketch,
    expected_fpr,
    optimal_bits,
    optimal_hashes,
    optimal_parameters,
)


def test_known_textbook_value():
    # n=1000, p=0.01 -> m ~ 9586 bits, k ~ 7.
    m = optimal_bits(1000, 0.01)
    assert m == pytest.approx(9586, abs=2)
    assert optimal_hashes(m, 1000) == 7


def test_lower_fpr_needs_more_bits():
    assert optimal_bits(1000, 0.001) > optimal_bits(1000, 0.05)


def test_more_elements_need_more_bits():
    assert optimal_bits(10_000, 0.01) > optimal_bits(1000, 0.01)


def test_validation():
    with pytest.raises(ValueError):
        optimal_bits(0, 0.01)
    with pytest.raises(ValueError):
        optimal_bits(100, 0.0)
    with pytest.raises(ValueError):
        optimal_bits(100, 1.0)
    with pytest.raises(ValueError):
        optimal_hashes(0, 10)
    with pytest.raises(ValueError):
        expected_fpr(0, 1, 10)
    with pytest.raises(ValueError):
        expected_fpr(10, 1, -1)


def test_expected_fpr_zero_elements():
    assert expected_fpr(1000, 3, 0) == 0.0


def test_expected_fpr_monotone_in_n():
    fprs = [expected_fpr(10_000, 5, n) for n in (10, 100, 1000, 5000)]
    assert fprs == sorted(fprs)
    assert all(0.0 <= f <= 1.0 for f in fprs)


@given(n=st.integers(1, 100_000), p=st.floats(0.0001, 0.5))
def test_optimal_parameters_hit_the_target(n, p):
    m, k = optimal_parameters(n, p)
    achieved = expected_fpr(m, k, n)
    # Optimal sizing should come within a small factor of the target.
    assert achieved <= p * 1.5 + 1e-9


@given(m=st.integers(8, 10**6), n=st.integers(1, 10**5))
def test_optimal_hashes_at_least_one(m, n):
    assert optimal_hashes(m, n) >= 1


def test_asymptotic_formula_agreement():
    # expected_fpr approximates (1 - e^{-kn/m})^k for large m.
    m, k, n = 100_000, 5, 10_000
    approx = (1 - math.exp(-k * n / m)) ** k
    assert expected_fpr(m, k, n) == pytest.approx(approx, rel=0.01)


def make_sketch(cls, **shape):
    """A server sketch of ``cls``; the filter whose shape it took."""
    sketch = cls(horizon=60.0, **shape) if cls is RotatingCacheSketch else cls(**shape)
    return sketch.filter if cls is ServerCacheSketch else sketch


class TestHostileSizing:
    """Sizes are positive ``int``s, refused by name at the constructor,
    never an ``OverflowError`` or a ``TypeError`` from deep inside."""

    NOT_SIZES = [0, -3, 64.5, 8.0, math.inf, math.nan, True, False, "64", None]

    @pytest.mark.parametrize("cls", [BloomFilter, CountingBloomFilter])
    @pytest.mark.parametrize("value", NOT_SIZES, ids=repr)
    @pytest.mark.parametrize("field", ["bits", "hashes"])
    def test_filters_take_positive_ints_only(self, cls, value, field):
        shape = {"bits": 64, "hashes": 3, field: value}
        with pytest.raises(ValueError, match=field):
            cls(**shape)

    @pytest.mark.parametrize("cls", [ServerCacheSketch, RotatingCacheSketch])
    @pytest.mark.parametrize("value", NOT_SIZES[:-1], ids=repr)
    @pytest.mark.parametrize("field", ["capacity", "bits", "hashes"])
    def test_sketches_take_positive_ints_only(self, cls, value, field):
        shape = {"capacity": 100, "bits": 64, "hashes": 3, field: value}
        with pytest.raises(ValueError, match=field):
            make_sketch(cls, **shape)

    @pytest.mark.parametrize("cls", [ServerCacheSketch, RotatingCacheSketch])
    def test_half_a_shape_is_refused(self, cls):
        for shape in ({"bits": 64}, {"hashes": 3}):
            with pytest.raises(ValueError, match="together"):
                make_sketch(cls, **shape)

    @pytest.mark.parametrize("cls", [ServerCacheSketch, RotatingCacheSketch])
    def test_honest_shapes_still_build(self, cls):
        assert make_sketch(cls, capacity=100).bits == optimal_bits(100, 0.05)
        assert make_sketch(cls, bits=64, hashes=3).hashes == 3
