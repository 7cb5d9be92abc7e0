"""Tests for delay distributions."""

import math
import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet import ConstantDelay, Link, LogNormalDelay
from repro.simnet import delay as delay_module


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


# -- the inlined sampler draws as the standard library does ------------------
#
# ``LogNormalDelay.sample`` runs ``random.normalvariate``'s loop inline.
# It must return ``max(floor, rng.lognormvariate(log(median), sigma))``
# draw for draw and leave the generator in the same state, on every
# interpreter CI runs.

IDENTITY_SEEDS = range(12)
IDENTITY_GRID = [
    # (median, sigma, floor)
    (0.02, 0.25, 0.0),
    (0.05, 0.5, 0.01),
    (0.01, 1.0, 0.0),
    (0.3, 2.0, 0.05),
    (0.04, 0.0, 0.0),  # sigma 0: every draw is the median
    (0.04, 0.0, 0.04),  # ... and ties the floor exactly
    (0.02, 0.25, 0.5),  # floor above the median: mostly the floor
    (1e-6, 0.1, 0.0),
]
DRAWS = 64


def sampler_mismatches(delay_type):
    """``(seed, params, index)`` where ``delay_type``'s sampler departs
    from the standard library's, or leaves the RNG elsewhere."""
    found = []
    for seed in IDENTITY_SEEDS:
        for median, sigma, floor in IDENTITY_GRID:
            inlined, stdlib = random.Random(seed), random.Random(seed)
            delay = delay_type(median=median, sigma=sigma, floor=floor)
            for index in range(DRAWS):
                expected = max(
                    floor, stdlib.lognormvariate(math.log(median), sigma)
                )
                if delay.sample(inlined) != expected:
                    found.append((seed, (median, sigma, floor), index))
                    break
            else:
                if inlined.getstate() != stdlib.getstate():
                    found.append((seed, (median, sigma, floor), "state"))
    return found


def test_the_inlined_sampler_draws_as_lognormvariate():
    assert sampler_mismatches(LogNormalDelay) == []


def test_sigma_zero_returns_the_median_and_the_floor_wins_ties():
    rng = random.Random(1)
    median = math.exp(math.log(0.04))  # what lognormvariate returns
    assert LogNormalDelay(median=0.04, sigma=0.0).sample(rng) == median
    tied = LogNormalDelay(median=0.04, sigma=0.0, floor=median)
    assert tied.sample(rng) == median
    high = LogNormalDelay(median=0.02, sigma=0.0, floor=0.5)
    assert high.sample(rng) == 0.5


def test_the_identity_gate_trips_on_a_one_sided_second_uniform(monkeypatch):
    """The mutant: ``u2 = rand()`` where the standard library draws
    ``1.0 - rand()``, loaded as a module of its own."""
    source = Path(delay_module.__file__).read_text(encoding="utf-8")
    honest = "u2 = 1.0 - random()"
    assert source.count(honest) == 1
    mutant = types.ModuleType("repro_delay_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    code = compile(source.replace(honest, "u2 = random()"), "mutant", "exec")
    exec(code, mutant.__dict__)
    assert sampler_mismatches(mutant.LogNormalDelay) != []


# -- non-finite parameters are refused by name, at construction -------------


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: LogNormalDelay(median=math.nan), "median"),
        (lambda: LogNormalDelay(median=math.inf), "median"),
        (lambda: LogNormalDelay(median=0.02, sigma=math.nan), "sigma"),
        (lambda: LogNormalDelay(median=0.02, sigma=math.inf), "sigma"),
        (lambda: LogNormalDelay(median=0.02, floor=math.nan), "floor"),
        (lambda: LogNormalDelay(median=0.02, floor=math.inf), "floor"),
        (lambda: LogNormalDelay(median=0.02, floor=-math.inf), "floor"),
        (lambda: ConstantDelay(math.nan), "seconds"),
        (lambda: ConstantDelay(math.inf), "seconds"),
        (lambda: Link(ConstantDelay(0.01), bandwidth=math.nan), "bandwidth"),
        (lambda: Link(ConstantDelay(0.01), bandwidth=math.inf), "bandwidth"),
    ],
    ids=[
        "median-nan",
        "median-inf",
        "sigma-nan",
        "sigma-inf",
        "floor-nan",
        "floor-inf",
        "floor-minus-inf",
        "constant-nan",
        "constant-inf",
        "bandwidth-nan",
        "bandwidth-inf",
    ],
)
def test_non_finite_parameters_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=name):
        build()
