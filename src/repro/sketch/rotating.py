"""Rotating Bloom filter: the counting-free server sketch alternative.

A counting Bloom filter supports exact deletion but costs 17× the
memory of a plain filter (a 16-bit counter beside each bit) and
requires precise removal scheduling. The
rotating design avoids both: time is cut into windows of width
``window``; additions go into the current window's *plain* filter, and
membership is the union of the last ``ceil(horizon / window) + 1``
windows. Old windows are dropped wholesale — no per-key bookkeeping.

The trade-off: keys stay in the sketch up to one window *longer* than
necessary (false positives from over-retention, never staleness), and
the horizon must be an upper bound on the TTLs handed out. This is the
ablation partner of :class:`~repro.sketch.cache_sketch.ServerCacheSketch`
in experiment E4.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.sketch.bloom import BloomFilter
from repro.sketch.cache_sketch import (
    DEFAULT_CAPACITY,
    DEFAULT_TARGET_FPR,
    ClientCacheSketch,
)
from repro.sketch.sizing import sketch_shape


class RotatingCacheSketch:
    """Server sketch built from time-windowed plain Bloom filters."""

    def __init__(
        self,
        horizon: float,
        window: Optional[float] = None,
        capacity: int = DEFAULT_CAPACITY,
        target_fpr: float = DEFAULT_TARGET_FPR,
        bits: Optional[int] = None,
        hashes: Optional[int] = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive: {horizon}")
        self.horizon = float(horizon)
        self.window = float(window) if window is not None else self.horizon
        if self.window <= 0:
            raise ValueError(f"window must be positive: {self.window}")
        self.bits, self.hashes = sketch_shape(capacity, target_fpr, bits, hashes)
        #: Number of windows that together cover the horizon (plus the
        #: partially-filled current one).
        self.window_count = math.ceil(self.horizon / self.window) + 1
        # (window_start, filter), newest last.
        self._windows: Deque[Tuple[float, BloomFilter]] = deque()
        self.writes_reported = 0

    def _window_start(self, now: float) -> float:
        return math.floor(now / self.window) * self.window

    def _rotate(self, now: float) -> BloomFilter:
        """Drop expired windows; return the current window's filter."""
        start = self._window_start(now)
        while self._windows and (
            self._windows[0][0] <= start - self.window_count * self.window
        ):
            self._windows.popleft()
        if not self._windows or self._windows[-1][0] < start:
            self._windows.append((start, BloomFilter(self.bits, self.hashes)))
        return self._windows[-1][1]

    # -- protocol events ----------------------------------------------------

    def report_write(self, key: str, now: float) -> bool:
        """Mark ``key`` stale; it leaves the sketch after the horizon.

        Unlike the counting sketch there is no read tracking: every
        write is recorded (conservative — a write with no cached copies
        only costs a transient false positive).
        """
        self.writes_reported += 1
        self._rotate(now).add(key)
        return True

    def report_read(self, key: str, expires_at: float, now: float) -> None:
        """Accepted for interface parity; the rotating sketch does not
        track reads (retention is horizon-based)."""

    def advance(self, now: float) -> None:
        self._rotate(now)

    # -- queries ------------------------------------------------------------

    def contains(self, key: str, now: float) -> bool:
        self._rotate(now)
        return any(key in bf for _, bf in self._windows)

    def snapshot(self, now: float) -> ClientCacheSketch:
        """Union of all live windows, flattened for the client."""
        self._rotate(now)
        merged = BloomFilter(self.bits, self.hashes)
        for _, window_filter in self._windows:
            merged = merged.union(window_filter)
        return ClientCacheSketch(filter=merged, generated_at=now)

    def live_windows(self) -> int:
        return len(self._windows)

    def __repr__(self) -> str:
        return (
            f"RotatingCacheSketch(horizon={self.horizon}, "
            f"window={self.window}, windows={len(self._windows)})"
        )
