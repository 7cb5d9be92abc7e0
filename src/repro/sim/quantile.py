"""A deterministic, exactly-mergeable streaming quantile sketch.

Log-bucketed (DDSketch-style) histogram: a positive value ``v`` lands
in bucket ``ceil(log_base(v))`` where ``base = (1 + a) / (1 - a)``
for relative accuracy ``a``.  Each bucket stores ``(count, min,
max)``.  Merging adds counts and combines extrema per bucket, which
is *order-independent by construction*: ``merge(a, b)`` is exactly
equal to ingesting the concatenation of both streams, in any order —
the property the obs test suite checks against a sorted-list
reference.

Queries walk buckets in value order and interpolate linearly inside
the winning bucket between its observed min and max, so heavy ties
(min == max) are answered exactly and continuous distributions see a
rank error bounded by the bucket mass (well under 1% at the default
relative accuracy).

Zero and negative values get their own exact-zero counter and a
mirrored bucket map, so the sketch is total over floats while
remaining deterministic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["QuantileSketch"]

#: Values with magnitude below this are treated as exact zeros.
_ZERO_EPSILON = 1e-12


class QuantileSketch:
    """Streaming quantiles with exact, order-independent merge."""

    __slots__ = (
        "relative_accuracy",
        "_base_log",
        "_buckets",
        "_neg_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, relative_accuracy: float = 0.0025) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._base_log = math.log1p(2 * relative_accuracy / (1 - relative_accuracy))
        # bucket key -> [count, min, max]
        self._buckets: Dict[int, List[float]] = {}
        self._neg_buckets: Dict[int, List[float]] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if abs(value) <= _ZERO_EPSILON:
            self._zero_count += 1
            return
        if value > 0:
            buckets, magnitude = self._buckets, value
        else:
            buckets, magnitude = self._neg_buckets, -value
        key = math.ceil(math.log(magnitude) / self._base_log)
        slot = buckets.get(key)
        if slot is None:
            buckets[key] = [1, value, value]
        else:
            slot[0] += 1
            if value < slot[1]:
                slot[1] = value
            if value > slot[2]:
                slot[2] = value

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into self; exact and order-independent."""
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__}")
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError("cannot merge sketches with different accuracies")
        for ours, theirs in (
            (self._buckets, other._buckets),
            (self._neg_buckets, other._neg_buckets),
        ):
            for key, (count, lo, hi) in theirs.items():
                slot = ours.get(key)
                if slot is None:
                    ours[key] = [count, lo, hi]
                else:
                    slot[0] += count
                    if lo < slot[1]:
                        slot[1] = lo
                    if hi > slot[2]:
                        slot[2] = hi
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._sum / self._count

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._max

    def _ordered_slots(self) -> Iterable[Tuple[int, float, float]]:
        """Yield (count, lo, hi) in ascending value order."""
        for key in sorted(self._neg_buckets, reverse=True):
            count, lo, hi = self._neg_buckets[key]
            yield count, lo, hi
        if self._zero_count:
            yield self._zero_count, 0.0, 0.0
        for key in sorted(self._buckets):
            count, lo, hi = self._buckets[key]
            yield count, lo, hi

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            raise ValueError("no observations")
        # 1-based target rank, matching a sorted-list reference with
        # nearest-rank selection.
        target = max(1, math.ceil(q * self._count))
        cumulative = 0
        for count, lo, hi in self._ordered_slots():
            if cumulative + count >= target:
                if count == 1 or lo == hi:
                    return lo
                position = target - cumulative  # 1..count inside bucket
                fraction = (position - 1) / (count - 1)
                return lo + (hi - lo) * fraction
            cumulative += count
        return self._max  # pragma: no cover - defensive

    def percentile(self, q: float) -> float:
        """The value at percentile ``q`` in [0, 100] (Histogram API)."""
        return self.quantile(q / 100.0)

    def summary(self) -> Dict[str, float]:
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self._min,
            "max": self._max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(count={self._count}, accuracy={self.relative_accuracy})"
