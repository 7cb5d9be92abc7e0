"""Tests for delay distributions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet import ConstantDelay, LogNormalDelay


def test_constant_delay_is_constant():
    rng = random.Random(0)
    delay = ConstantDelay(0.05)
    assert all(delay.sample(rng) == 0.05 for _ in range(10))
    assert delay.mean() == 0.05


def test_constant_delay_rejects_negative():
    with pytest.raises(ValueError):
        ConstantDelay(-0.1)


def test_lognormal_positive_and_floored():
    rng = random.Random(2)
    delay = LogNormalDelay(median=0.02, sigma=0.5, floor=0.01)
    samples = [delay.sample(rng) for _ in range(500)]
    assert all(s >= 0.01 for s in samples)


def test_lognormal_median_roughly_holds():
    rng = random.Random(3)
    delay = LogNormalDelay(median=0.05, sigma=0.3)
    samples = sorted(delay.sample(rng) for _ in range(4001))
    empirical_median = samples[len(samples) // 2]
    assert empirical_median == pytest.approx(0.05, rel=0.1)


def test_lognormal_mean_exceeds_median():
    delay = LogNormalDelay(median=0.05, sigma=0.5)
    assert delay.mean() > 0.05


def test_lognormal_rejects_bad_params():
    with pytest.raises(ValueError):
        LogNormalDelay(median=0.0)
    with pytest.raises(ValueError):
        LogNormalDelay(median=0.1, sigma=-1)


@given(seed=st.integers(0, 2**32 - 1))
def test_lognormal_samples_are_always_positive(seed):
    rng = random.Random(seed)
    delay = LogNormalDelay(median=0.02, sigma=1.0)
    assert delay.sample(rng) > 0
