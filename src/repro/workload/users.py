"""User population: identities, segments, connections, consent."""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Tuple


@dataclass
class UserPopulationConfig:
    """Distribution knobs of the user population."""

    n_users: int = 200
    #: (tier, probability) — customer tiers driving segment pricing.
    tier_mix: Tuple[Tuple[str, float], ...] = (
        ("standard", 0.70),
        ("gold", 0.25),
        ("platinum", 0.05),
    )
    #: (locale, probability).
    locale_mix: Tuple[Tuple[str, float], ...] = (
        ("en", 0.5),
        ("de", 0.3),
        ("fr", 0.2),
    )
    #: (connection profile name, probability) — keys into
    #: :data:`repro.simnet.profiles.CONNECTION_PROFILES`.
    connection_mix: Tuple[Tuple[str, float], ...] = (
        ("fiber", 0.2),
        ("cable", 0.4),
        ("lte", 0.25),
        ("3g", 0.15),
    )
    #: Fraction of users who are logged in (have an identity).
    logged_in_fraction: float = 0.6
    #: Fraction of users consenting to acceleration + segmentation.
    consent_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise ValueError(f"n_users must be positive: {self.n_users}")
        for name, mix in (
            ("tier_mix", self.tier_mix),
            ("locale_mix", self.locale_mix),
            ("connection_mix", self.connection_mix),
        ):
            total = sum(p for _, p in mix)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"{name} probabilities sum to {total}")


@dataclass(frozen=True, slots=True)
class User:
    """One member of the population."""

    user_id: str
    tier: str
    locale: str
    connection: str
    logged_in: bool
    consents: bool

    @property
    def attributes(self) -> Dict[str, str]:
        return {"tier": self.tier, "locale": self.locale}


@dataclass
class UserPopulation:
    users: List[User] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.users)

    def by_id(self, user_id: str) -> User:
        index = int(user_id[1:])  # ids are "u0", "u1", ...
        return self.users[index]

    def sample(self, rng: random.Random) -> User:
        return rng.choice(self.users)

    def segment_attribute_list(self) -> List[Dict[str, str]]:
        """Attribute dicts of all users (for k-anonymity reports)."""
        return [user.attributes for user in self.users]


def _sampler(mix: Tuple[Tuple[str, float], ...]) -> Callable[[random.Random], str]:
    """Draws from ``mix`` exactly as ``rng.choices(names, weights=...)``
    does (one ``random()`` call, one bisection), with the cumulative
    weights built once instead of on every draw."""
    names = [name for name, _ in mix]
    cum_weights = list(accumulate(weight for _, weight in mix))
    total = cum_weights[-1] + 0.0
    hi = len(names) - 1
    return lambda rng: names[bisect(cum_weights, rng.random() * total, 0, hi)]


def generate_users(
    config: UserPopulationConfig, rng: random.Random
) -> UserPopulation:
    """Generate the population deterministically from ``rng``."""
    tier = _sampler(config.tier_mix)
    locale = _sampler(config.locale_mix)
    connection = _sampler(config.connection_mix)
    users = []
    for index in range(config.n_users):
        users.append(
            User(
                user_id=f"u{index}",
                tier=tier(rng),
                locale=locale(rng),
                connection=connection(rng),
                logged_in=rng.random() < config.logged_in_fraction,
                consents=rng.random() < config.consent_fraction,
            )
        )
    return UserPopulation(users=users)
