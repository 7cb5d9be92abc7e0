"""Per-key write-rate tracking and TTL derivation.

Model: writes to a key arrive roughly Poisson with rate ``λ``; the
estimator maintains an exponentially weighted moving average of
inter-write gaps (``1/λ``). Choosing TTL ``T`` so that the probability
of a write within ``T`` is at most ``θ`` gives::

    P(write ≤ T) = 1 - exp(-λT) ≤ θ   ⇒   T = -ln(1 - θ) / λ

Keys with no observed writes get the (long) default TTL: content that
never changes should live in caches as long as possible, because the
Cache Sketch makes long TTLs safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class KeyWriteStats:
    """Write history summary for one cache key."""

    writes: int = 0
    last_write_at: Optional[float] = None
    mean_gap: Optional[float] = None  # EWMA of inter-write gaps

    def observe(self, now: float, alpha: float) -> None:
        """Fold one write at time ``now`` into the statistics."""
        if self.last_write_at is not None:
            gap = max(1e-9, now - self.last_write_at)
            if self.mean_gap is None:
                self.mean_gap = gap
            else:
                self.mean_gap = alpha * gap + (1 - alpha) * self.mean_gap
        self.last_write_at = now
        self.writes += 1

    def write_rate(self) -> Optional[float]:
        """Estimated writes per second (``None`` before two writes)."""
        if self.mean_gap is None:
            return None
        return 1.0 / self.mean_gap


class TtlEstimator:
    """Derives TTLs from observed write rates.

    Parameters
    ----------
    target_invalidation_prob:
        θ — acceptable probability that a handed-out copy is
        invalidated by a write before it expires. Larger θ means longer
        TTLs and more sketch/purge work; smaller θ approaches
        no-caching for hot keys.
    default_ttl:
        TTL for keys never observed to change.
    min_ttl / max_ttl:
        Clamp bounds. A derived TTL below ``min_worthwhile`` marks the
        key uncacheable (``ttl_for`` returns 0).
    ewma_alpha:
        Smoothing of the inter-write gap average.
    """

    def __init__(
        self,
        target_invalidation_prob: float = 0.3,
        default_ttl: float = 86_400.0,
        min_ttl: float = 1.0,
        max_ttl: float = 7 * 86_400.0,
        min_worthwhile: float = 0.5,
        ewma_alpha: float = 0.2,
    ) -> None:
        if not 0.0 < target_invalidation_prob < 1.0:
            raise ValueError(
                "target_invalidation_prob must be in (0, 1), got "
                f"{target_invalidation_prob}"
            )
        if min_ttl > max_ttl:
            raise ValueError(
                f"min_ttl {min_ttl} exceeds max_ttl {max_ttl}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], {ewma_alpha}")
        self.theta = target_invalidation_prob
        self.default_ttl = default_ttl
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.min_worthwhile = min_worthwhile
        self.ewma_alpha = ewma_alpha
        self._stats: Dict[str, KeyWriteStats] = {}

    def observe_write(self, key: str, now: float) -> None:
        """Record a write to ``key`` at simulated time ``now``."""
        stats = self._stats.setdefault(key, KeyWriteStats())
        stats.observe(now, self.ewma_alpha)

    def stats_for(self, key: str) -> Optional[KeyWriteStats]:
        return self._stats.get(key)

    def raw_estimate(self, key: str) -> float:
        """The unclamped TTL derived from the write rate."""
        stats = self._stats.get(key)
        rate = stats.write_rate() if stats is not None else None
        if rate is None or rate <= 0.0:
            return self.default_ttl
        return -math.log(1.0 - self.theta) / rate

    def ttl_for(self, key: str) -> float:
        """The TTL to attach to a response for ``key``.

        Returns 0 when caching is not worthwhile (writes arrive so fast
        that even ``min_ttl`` would mostly serve invalidation traffic).
        """
        raw = self.raw_estimate(key)
        if raw < self.min_worthwhile:
            return 0.0
        return min(self.max_ttl, max(self.min_ttl, raw))
