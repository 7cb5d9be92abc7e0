"""The consistency ladder for multi-key edge read transactions.

Grounded in *Cache Serializability: Reducing Inconsistency in Edge
Transactions*: each rung strengthens the guarantee a multi-key read
set enjoys, at increasing latency cost.

- ``delta`` — every key individually satisfies the Δ-atomicity bound
  (today's per-key path, no cross-key coordination).
- ``snapshot`` — additionally, the returned versions are mutually
  consistent: there is an instant at which all of them were current
  simultaneously (no fractured reads).
- ``serializable`` — additionally, the read set is validated against
  the origin's version histories in one optimistic round trip, so the
  transaction observes the origin's own serial order.
"""

from __future__ import annotations

import enum


class ConsistencyLevel(str, enum.Enum):
    """One rung of the multi-key consistency ladder."""

    DELTA = "delta"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"

    @property
    def rank(self) -> int:
        """Ladder position: higher rank means a stronger guarantee."""
        return _RANKS[self]

    def __ge__(self, other):  # type: ignore[override]
        if isinstance(other, ConsistencyLevel):
            return self.rank >= other.rank
        return NotImplemented

    def __gt__(self, other):  # type: ignore[override]
        if isinstance(other, ConsistencyLevel):
            return self.rank > other.rank
        return NotImplemented

    def __le__(self, other):  # type: ignore[override]
        if isinstance(other, ConsistencyLevel):
            return self.rank <= other.rank
        return NotImplemented

    def __lt__(self, other):  # type: ignore[override]
        if isinstance(other, ConsistencyLevel):
            return self.rank < other.rank
        return NotImplemented

    @classmethod
    def parse(cls, value) -> "ConsistencyLevel":
        """Accept a level, its name, or its value (case-insensitive)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.strip().lower())
            except ValueError:
                pass
        raise ValueError(
            f"unknown consistency level {value!r}; "
            f"expected one of {[level.value for level in cls]}"
        )


_RANKS = {
    ConsistencyLevel.DELTA: 0,
    ConsistencyLevel.SNAPSHOT: 1,
    ConsistencyLevel.SERIALIZABLE: 2,
}
