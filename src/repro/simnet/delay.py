"""One-way delay distributions for network links."""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

_exp = math.exp
_log = math.log
_INF = math.inf
#: ``random.NV_MAGICCONST``, Kinderman and Monahan's ``4·e^(-1/2)/√2``.
_NV_MAGICCONST = 4 * _exp(-0.5) / math.sqrt(2.0)


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
        # ``nan < 0`` is false: the chained test refuses NaN and ∞ too.
        if not 0 <= self.seconds < _INF:
            raise ValueError(f"seconds must be finite and >= 0, got {self.seconds}")

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

    Draws are identical to ``max(floor, rng.lognormvariate(log(median),
    sigma))``: :meth:`sample` runs ``random.normalvariate``'s
    Kinderman–Monahan loop inline, with the same ``rng.random()`` draws
    and the same float operations, because it runs on every network
    hop. ``log(median)`` is taken once, here.
    """

    median: float
    sigma: float = 0.25
    floor: float = 0.0

    def __post_init__(self) -> None:
        # Chained tests, so NaN (every comparison false) fails them too.
        if not 0 < self.median < _INF:
            raise ValueError(f"median must be finite and positive, got {self.median}")
        if not 0 <= self.sigma < _INF:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not -_INF < self.floor < _INF:
            raise ValueError(f"floor must be finite, got {self.floor}")
        object.__setattr__(self, "_mu", _log(self.median))

    def sample(self, rng: random.Random) -> float:
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -_log(u2):
                break
        delay = _exp(self._mu + z * self.sigma)
        # ``max(floor, delay)``: the floor wins ties, as it does there.
        return delay if delay > self.floor else self.floor

    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)
