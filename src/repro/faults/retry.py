"""Retry policy: how hard the transport tries before giving up.

One :class:`RetryPolicy` bounds a request along two axes at once:
*attempts* (with exponential backoff between them) and *time* (a total
per-request budget, plus the transport's per-attempt timeout that
bounds how long a sender waits for a reply that was lost in transit).
Both bounds are needed — attempts alone would let pathological latency
spikes stack unboundedly; time alone would hammer a browned-out origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.knobs import POSITIVE, knob, knobs

#: Total tries per request (without a policy a request gets one).
MAX_ATTEMPTS = 3
#: Backoff before retry ``n`` is ``BASE_BACKOFF * BACKOFF_FACTOR**(n-1)``.
BASE_BACKOFF = 0.05
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
@knobs
class RetryPolicy:
    """Bounded retry-with-exponential-backoff for one request."""

    # Once a request has consumed the budget across its attempts, no
    # further retry is scheduled.
    budget: float = knob(
        8.0,
        POSITIVE,
        help="enable retry-with-backoff for origin exchanges with this total "
        "per-request time budget",
        flag="--retry-budget",
        metavar="SECONDS",
    )

    def gives_up_after(self, attempt: int) -> bool:
        """Whether failed attempt number ``attempt`` is the last one."""
        return attempt >= MAX_ATTEMPTS

    def backoff_after(self, attempt: int) -> float:
        """Backoff to sleep after failed attempt number ``attempt``."""
        return BASE_BACKOFF * BACKOFF_FACTOR ** (attempt - 1)
