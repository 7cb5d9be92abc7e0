"""Retry policy: how hard the transport tries before giving up.

One :class:`RetryPolicy` bounds a request along two axes at once:
*attempts* (with exponential backoff between them) and *time* (a total
per-request budget, plus a per-attempt timeout that bounds how long a
sender waits for a reply that was lost in transit). Both bounds are
needed — attempts alone would let pathological latency spikes stack
unboundedly; time alone would hammer a browned-out origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-exponential-backoff for one request."""

    #: Total tries (1 = no retries, today's fail-fast behaviour).
    max_attempts: int = 3
    #: Backoff before retry ``n`` is ``base_backoff * factor**(n-1)``.
    base_backoff: float = 0.05
    backoff_factor: float = 2.0
    #: How long a sender waits for a reply before declaring the attempt
    #: lost (pays this as simulated time when a message is dropped).
    attempt_timeout: float = 1.0
    #: Total simulated time one request may consume across attempts;
    #: once exceeded, no further retries are scheduled.
    budget: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if not 0 <= self.base_backoff < math.inf:
            raise ValueError(
                f"base_backoff must be finite and non-negative: "
                f"{self.base_backoff}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        for knob in ("attempt_timeout", "budget"):
            value = getattr(self, knob)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{knob} must be finite and positive: {value}"
                )

    def backoff_after(self, attempt: int) -> float:
        """Backoff to sleep after failed attempt number ``attempt``."""
        return self.base_backoff * self.backoff_factor ** (attempt - 1)
