"""The Cache Sketch protocol objects.

:class:`ServerCacheSketch` lives next to the origin. It learns about
every cacheable read (key + absolute expiration of the handed-out copy)
and every write. A write to a key with unexpired cached copies adds the
key to a counting Bloom filter; the key automatically leaves the filter
once the *latest* handed-out copy has expired — after that, expiration
alone guarantees no cache can hold a stale copy.

:class:`ClientCacheSketch` is the flattened snapshot a browser holds: a
plain Bloom filter plus the time it was generated. The client treats
"in sketch" as *must revalidate* and "not in sketch" as *safe to serve
from cache* (modulo the bounded staleness window Δ — see
:mod:`repro.coherence`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sketch.bloom import BloomFilter
from repro.sketch.counting import CountingBloomFilter
from repro.sketch.sizing import sketch_shape


@dataclass
class ClientCacheSketch:
    """A client-side snapshot of the server sketch."""

    filter: BloomFilter
    generated_at: float

    def contains(self, key: str) -> bool:
        """Whether ``key`` must be revalidated before cache use."""
        return key in self.filter

    def age(self, now: float) -> float:
        return max(0.0, now - self.generated_at)

    def transfer_size_bytes(self) -> int:
        return self.filter.transfer_size_bytes()


class ServerCacheSketch:
    """Origin-side bookkeeping of potentially-stale cached resources."""

    def __init__(
        self,
        capacity: int = 20_000,
        target_fpr: float = 0.05,
        bits: Optional[int] = None,
        hashes: Optional[int] = None,
    ) -> None:
        bits, hashes = sketch_shape(capacity, target_fpr, bits, hashes)
        self.filter = CountingBloomFilter(bits, hashes)
        # key -> latest absolute expiration among handed-out copies
        self._expirations: Dict[str, float] = {}
        # key -> scheduled removal time, for keys currently in the filter
        self._scheduled: Dict[str, float] = {}
        # (removal_time, key); entries not matching _scheduled are stale
        self._removals: List[Tuple[float, str]] = []
        # Same lazy-heap trick for pruning _expirations
        self._expiry_queue: List[Tuple[float, str]] = []
        self.reads_reported = 0
        self.writes_reported = 0
        self.additions = 0

    # -- protocol events ----------------------------------------------------

    def report_read(self, key: str, expires_at: float, now: float) -> None:
        """A cacheable copy of ``key`` was handed out, fresh until
        ``expires_at``."""
        self.advance(now)
        self.reads_reported += 1
        if expires_at <= now:
            return
        current = self._expirations.get(key)
        if current is None or expires_at > current:
            self._expirations[key] = expires_at
            heapq.heappush(self._expiry_queue, (expires_at, key))
        # Copies handed out now are of the *current* version: they never
        # extend a pending removal — only writes make copies stale.

    def report_write(self, key: str, now: float) -> bool:
        """``key`` changed at ``now``; add to the sketch if any handed-out
        copy is still unexpired. Returns whether the key is now in the
        sketch."""
        self.advance(now)
        self.writes_reported += 1
        expiration = self._expirations.get(key)
        if expiration is None or expiration <= now:
            return False  # expiration already guarantees coherence
        scheduled = self._scheduled.get(key)
        if scheduled is None:
            self.filter.add(key)
            self.additions += 1
            self._scheduled[key] = expiration
            heapq.heappush(self._removals, (expiration, key))
        elif expiration > scheduled:
            self._scheduled[key] = expiration
            heapq.heappush(self._removals, (expiration, key))
        return True

    def advance(self, now: float) -> None:
        """Remove keys whose last handed-out copy has expired."""
        while self._removals and self._removals[0][0] <= now:
            time, key = heapq.heappop(self._removals)
            if self._scheduled.get(key) != time:
                continue  # superseded by a later reschedule
            del self._scheduled[key]
            self.filter.remove(key)
        while self._expiry_queue and self._expiry_queue[0][0] <= now:
            time, key = heapq.heappop(self._expiry_queue)
            if self._expirations.get(key) == time:
                del self._expirations[key]

    # -- GDPR erasure --------------------------------------------------------

    def keys_matching(self, predicate) -> List[str]:
        """The plaintext keys held here that match, sorted: every
        tracked expiration and every key pending removal from the
        filter. Mutates nothing — the erasure walk's residual check and
        the subject-access report read the sketch through this."""
        return sorted(
            key
            for key in {*self._expirations, *self._scheduled}
            if predicate(key)
        )

    def forget_matching(self, predicate, now: float) -> int:
        """Drop every tracked key that matches — expirations, pending
        removals, and the filter membership itself.

        The sketch stores plaintext key strings (``carts/u5`` and the
        user-variant URLs), which makes it personal data in its own
        right; erasure must forget them, not wait for expiry. Returns
        the number of keys forgotten.
        """
        self.advance(now)
        matched = self.keys_matching(predicate)
        for key in matched:
            self._expirations.pop(key, None)
            if self._scheduled.pop(key, None) is not None:
                self.filter.remove(key)
        # Heap leftovers for forgotten keys are harmless: advance()
        # discards entries whose key no longer matches the dicts.
        return len(matched)

    # -- queries ------------------------------------------------------------

    def contains(self, key: str, now: float) -> bool:
        self.advance(now)
        return key in self.filter

    def stale_key_count(self, now: float) -> int:
        """Exact number of keys currently marked stale."""
        self.advance(now)
        return len(self._scheduled)

    def snapshot(self, now: float) -> ClientCacheSketch:
        """Flatten to the client representation (one sketch download)."""
        self.advance(now)
        return ClientCacheSketch(
            filter=self.filter.flatten(), generated_at=now
        )

    def __repr__(self) -> str:
        return (
            f"ServerCacheSketch(stale={len(self._scheduled)}, "
            f"tracked={len(self._expirations)})"
        )
