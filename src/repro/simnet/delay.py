"""One-way delay distributions for network links."""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass


class Delay(ABC):
    """A distribution of one-way propagation delays in seconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay."""

    @abstractmethod
    def mean(self) -> float:
        """Expected delay (used by capacity planning and reports)."""


@dataclass(frozen=True)
class ConstantDelay(Delay):
    """A fixed delay; the workhorse of deterministic tests."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"negative delay {self.seconds}")

    def sample(self, rng: random.Random) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds


@dataclass(frozen=True)
class LogNormalDelay(Delay):
    """Log-normal delay — the standard model for Internet RTT jitter.

    Parameterized by the *median* delay and a multiplicative spread
    ``sigma`` (the standard deviation of the underlying normal), which
    is more intuitive to calibrate than ``mu``/``sigma`` directly. A
    ``floor`` bounds samples below (propagation delay cannot beat the
    speed of light).
    """

    median: float
    sigma: float = 0.25
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    def sample(self, rng: random.Random) -> float:
        mu = math.log(self.median)
        return max(self.floor, rng.lognormvariate(mu, self.sigma))

    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)
