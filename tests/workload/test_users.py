"""Tests for user population generation."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.workload import UserPopulationConfig, generate_users
from repro.workload.users import User


def test_config_validation():
    with pytest.raises(ValueError):
        UserPopulationConfig(n_users=0)
    with pytest.raises(ValueError):
        UserPopulationConfig(tier_mix=(("a", 0.5), ("b", 0.6)))


@pytest.mark.parametrize(
    "mix, weights",
    [
        # Sums to 1, yet no draw can have a negative probability.
        ("tier_mix", (("standard", 1.2), ("gold", -0.2))),
        # ``abs(total - 1) > 1e-6`` is false for a NaN total.
        ("connection_mix", (("fiber", float("nan")), ("cable", 1.0))),
        ("locale_mix", (("en", float("inf")), ("de", 1.0))),
    ],
)
def test_a_mix_refuses_a_weight_that_is_no_probability(mix, weights):
    with pytest.raises(ValueError, match=f"^{mix} must be"):
        UserPopulationConfig(**{mix: weights})


def test_deterministic():
    a = generate_users(UserPopulationConfig(n_users=30), random.Random(3))
    b = generate_users(UserPopulationConfig(n_users=30), random.Random(3))
    assert a.users == b.users


def test_population_shape():
    population = generate_users(
        UserPopulationConfig(n_users=500), random.Random(0)
    )
    assert len(population) == 500
    assert population.by_id("u17").user_id == "u17"
    tiers = {user.tier for user in population.users}
    assert tiers <= {"standard", "gold", "platinum"}
    connections = {user.connection for user in population.users}
    assert connections <= {"fiber", "cable", "lte", "3g"}


def test_mix_fractions_roughly_hold():
    population = generate_users(
        UserPopulationConfig(n_users=2000), random.Random(1)
    )
    standard = sum(1 for u in population.users if u.tier == "standard")
    assert standard / 2000 == pytest.approx(0.70, abs=0.05)
    logged_in = sum(1 for u in population.users if u.logged_in)
    assert logged_in / 2000 == pytest.approx(0.60, abs=0.05)


def test_segment_attribute_list():
    population = generate_users(
        UserPopulationConfig(n_users=10), random.Random(0)
    )
    attrs = population.segment_attribute_list()
    assert len(attrs) == 10
    assert set(attrs[0]) == {"tier", "locale"}


def test_sample_draws_members():
    population = generate_users(
        UserPopulationConfig(n_users=10), random.Random(0)
    )
    rng = random.Random(5)
    assert population.sample(rng) in population.users


def reference_users(config, rng):
    """The population drawn with ``rng.choices(..., weights=...)``
    inline, cumulative weights rebuilt on every draw."""

    def pick(mix):
        names = [name for name, _ in mix]
        return rng.choices(names, weights=[w for _, w in mix], k=1)[0]

    return [
        User(
            user_id=f"u{index}",
            tier=pick(config.tier_mix),
            locale=pick(config.locale_mix),
            connection=pick(config.connection_mix),
            logged_in=rng.random() < config.logged_in_fraction,
            consents=rng.random() < config.consent_fraction,
        )
        for index in range(config.n_users)
    ]


@st.composite
def mixes(draw):
    """A valid mix: distinct names, non-negative weights summing to 1."""
    weights = draw(
        st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=6)
    )
    assume(sum(weights) > 0.0)
    total = sum(weights)
    return tuple((f"m{i}", weight / total) for i, weight in enumerate(weights))


@given(
    seed=st.integers(0, 2**32),
    n_users=st.integers(1, 40),
    tier_mix=mixes(),
    locale_mix=mixes(),
    connection_mix=mixes(),
)
@settings(max_examples=100, deadline=None)
def test_sampler_draws_what_choices_draws(
    seed, n_users, tier_mix, locale_mix, connection_mix
):
    config = UserPopulationConfig(
        n_users=n_users,
        tier_mix=tier_mix,
        locale_mix=locale_mix,
        connection_mix=connection_mix,
    )
    expected = reference_users(config, random.Random(seed))
    assert generate_users(config, random.Random(seed)).users == expected
