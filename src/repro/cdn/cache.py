"""TTL-aware cache policy layer over a pluggable storage engine.

:class:`CacheStore` owns everything *about* cached responses —
freshness semantics (shared vs. private), capacity limits, eviction
policy (LRU/FIFO/LFU), hit bookkeeping — while the entries themselves
live in a :class:`~repro.storage.backend.CacheBackend` engine chosen
by configuration (in-memory, sharded, or simulated-remote; see
:mod:`repro.storage`). The policy layer keeps its own recency order
and an LFU min-heap, so eviction decisions stay O(log n) regardless of
which engine holds the data, and it subscribes to the engine's
eviction hook so engine-initiated drops (per-shard capacity) never
desynchronize the bookkeeping.
"""

from __future__ import annotations

import enum
import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.http.freshness import expires_at, is_fresh_at
from repro.http.messages import Response
from repro.storage.backend import CacheBackend, InMemoryBackend


class EvictionPolicy(enum.Enum):
    """Which entry goes when the cache is full."""

    LRU = "lru"
    FIFO = "fifo"
    LFU = "lfu"  # least hits since admission; ties broken oldest-first


@dataclass
class CacheEntry:
    """One stored response plus bookkeeping."""

    key: str
    response: Response
    stored_at: float
    size_bytes: int
    hits: int = 0
    #: Filled by :func:`repro.gdpr.matching.identity_text` on the first
    #: GDPR visit. A stored entry is replaced, never edited (only
    #: ``hits``, a number, changes in place), so it cannot go stale.
    _identity_text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def expires_at(self, shared: bool) -> float:
        return expires_at(self.response, shared)


def _payload_size(response: Response) -> int:
    """Size accounting: Content-Length if present, else body size.

    ``str`` bodies are sized by their UTF-8 encoding — character count
    would undercount multi-byte content.
    """
    length = response.headers.get("Content-Length")
    if length is not None:
        try:
            return max(0, int(length))
        except ValueError:
            pass
    body = response.body
    if isinstance(body, str):
        return len(body.encode("utf-8"))
    return len(body) if isinstance(body, bytes) else 0


class CacheStore:
    """A bounded map of cache keys to responses.

    ``shared`` selects shared- vs. private-cache freshness semantics
    (``s-maxage`` vs ``max-age``, ``private`` handling). Capacity may be
    bounded by entry count and/or total payload bytes; eviction is LRU
    by default. Entries are held by ``backend`` (default: the classic
    in-memory engine).

    The store itself never *refuses* stale entries on ``get`` — callers
    (edge/browser logic) decide whether a stale entry is still useful
    for revalidation. Use :meth:`get_fresh` for the common fast path.
    """

    def __init__(
        self,
        shared: bool,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        self.shared = shared
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.policy = policy
        self.backend = backend if backend is not None else InMemoryBackend()
        self.backend.subscribe_evictions(self._on_backend_eviction)
        #: Recency (LRU) / insertion (FIFO, LFU ties) order of live keys.
        self._order: "OrderedDict[str, None]" = OrderedDict()
        #: Admission sequence per live key; stale heap items are
        #: recognized by a mismatched (seq, hits) pair and skipped.
        self._seq: Dict[str, int] = {}
        self._lfu_heap: List[Tuple[int, int, str]] = []
        self._admit_seq = 0
        self.evictions = 0
        self.invalidations = 0

    # -- capacity ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: str) -> bool:
        return key in self._order

    @property
    def total_bytes(self) -> int:
        return self.backend.bytes_used

    def keys(self) -> List[str]:
        return list(self._order)

    def __iter__(self) -> Iterator[CacheEntry]:
        for key in list(self._order):
            entry = self.backend.peek(key)
            if entry is not None:
                yield entry

    def drain_latency(self, concurrent: float = 0.0) -> float:
        """Simulated backend latency accrued since the last drain.

        ``concurrent`` is network transit the caller pays at the same
        drain point; overlap-capable engines clip against it (see
        :meth:`repro.storage.backend.CacheBackend.drain_latency`).
        """
        return self.backend.drain_latency(concurrent)

    # -- core operations -----------------------------------------------------

    def put(self, key: str, response: Response, now: float) -> CacheEntry:
        """Store (or replace) an entry; evicts as needed."""
        size = _payload_size(response)
        entry = CacheEntry(
            key=key, response=response, stored_at=now, size_bytes=size
        )
        self.backend.put(key, entry, size)
        self._order[key] = None
        self._order.move_to_end(key)
        self._admit_seq += 1
        self._seq[key] = self._admit_seq
        if self.policy is EvictionPolicy.LFU:
            heapq.heappush(self._lfu_heap, (0, self._admit_seq, key))
        self._evict_if_needed(protect=key)
        return entry

    def _touch(self, key: str, entry: CacheEntry) -> None:
        """Record one genuine serve: recency and hit bookkeeping."""
        if self.policy is EvictionPolicy.LRU:
            self._order.move_to_end(key)
        entry.hits += 1
        if self.policy is EvictionPolicy.LFU:
            heapq.heappush(
                self._lfu_heap, (entry.hits, self._seq[key], key)
            )

    def get(self, key: str, now: float) -> Optional[CacheEntry]:
        """Return the entry regardless of freshness (None if absent)."""
        entry = self.backend.get(key)
        if entry is None:
            return None
        self._touch(key, entry)
        return entry

    def get_fresh(self, key: str, now: float) -> Optional[CacheEntry]:
        """Return the entry only if it is still fresh at ``now``.

        A stale lookup is a miss: it must not bump hit counters or LRU
        recency, or stale entries would look hot to the victim picker.
        """
        entry = self.backend.get(key)
        if entry is None:
            return None
        if not is_fresh_at(entry.response, now, self.shared):
            return None
        self._touch(key, entry)
        return entry

    def get_fresh_many(
        self, keys: List[str], now: float
    ) -> Dict[str, CacheEntry]:
        """Batched :meth:`get_fresh`: the fresh entries among ``keys``.

        One backend ``get_many`` covers the whole lookup, so a batched
        engine charges ~one round trip for a multi-asset page instead
        of one per asset. Freshness filtering and hit bookkeeping stay
        up here in the policy layer, exactly as for single lookups.
        """
        fresh: Dict[str, CacheEntry] = {}
        for key, entry in self.backend.get_many(keys).items():
            if is_fresh_at(entry.response, now, self.shared):
                self._touch(key, entry)
                fresh[key] = entry
        return fresh

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Look without touching recency or hit counters."""
        return self.backend.peek(key)

    def remove(self, key: str, count_as_invalidation: bool = True) -> bool:
        """Drop an entry; returns whether it existed."""
        entry = self.backend.remove(key)
        if entry is None:
            return False
        self._forget(key)
        if count_as_invalidation:
            self.invalidations += 1
        return True

    def remove_many(
        self, keys: List[str], count_as_invalidation: bool = True
    ) -> int:
        """Batched :meth:`remove`; returns how many entries existed.

        The backend sees one ``remove_many`` — a batched engine turns a
        fan-out purge's N deletions into ~one pipelined round trip.
        """
        removed = self.backend.remove_many(keys)
        for key in removed:
            self._forget(key)
        if count_as_invalidation:
            self.invalidations += len(removed)
        return len(removed)

    def remove_prefix(self, prefix: str) -> int:
        """Drop all entries whose key starts with ``prefix``.

        Works against any engine: the key index spans all shards, so a
        prefix purge reaches every partition.
        """
        victims = [key for key in self._order if key.startswith(prefix)]
        for key in victims:
            self.remove(key)
        return len(victims)

    def erase_matching(self, predicate) -> List[str]:
        """Drop every entry whose ``(key, entry)`` matches.

        The policy-level erasure walk: victims are found through the
        key index (reaches every shard) and removed with one batched
        ``remove_many``, so recency/LFU bookkeeping stays consistent —
        erasing behind the policy layer's back would leave phantom
        keys in the recency order. Not counted as invalidations:
        erasure is a compliance action, not coherence traffic.
        """
        victims = [
            key
            for key in list(self._order)
            if (entry := self.backend.peek(key)) is not None
            and predicate(key, entry)
        ]
        if victims:
            self.remove_many(victims, count_as_invalidation=False)
        return victims

    def clear(self) -> None:
        self.backend.clear()
        self._order.clear()
        self._seq.clear()
        self._lfu_heap.clear()

    def expire(self, now: float) -> int:
        """Actively drop entries that are no longer fresh.

        Real caches expire lazily; this is for tests and for measuring
        live-entry statistics.
        """
        victims = [
            key
            for key in list(self._order)
            if (entry := self.backend.peek(key)) is not None
            and not is_fresh_at(entry.response, now, self.shared)
        ]
        for key in victims:
            self.remove(key, count_as_invalidation=False)
        return len(victims)

    # -- eviction ---------------------------------------------------------

    def _forget(self, key: str) -> None:
        """Drop policy-layer bookkeeping for a removed key."""
        self._order.pop(key, None)
        self._seq.pop(key, None)
        # Heap items for the key become stale and are skipped lazily.

    def _on_backend_eviction(self, key: str, entry) -> None:
        """An engine dropped an entry on its own (per-shard capacity)."""
        self._forget(key)
        self.evictions += 1

    def _evict_if_needed(self, protect: str) -> None:
        def over_capacity() -> bool:
            if self.max_entries is not None and (
                len(self._order) > self.max_entries
            ):
                return True
            if self.max_bytes is not None and (
                self.backend.bytes_used > self.max_bytes
            ):
                return True
            return False

        while over_capacity():
            victim = self._pick_victim(protect)
            if victim is None:
                # The new entry alone exceeds capacity: keep it anyway
                # (a cache that cannot hold its largest object would
                # thrash forever).
                break
            self.remove(victim, count_as_invalidation=False)
            self.evictions += 1

    def _pick_victim(self, protect: str) -> Optional[str]:
        if self.policy is EvictionPolicy.LFU:
            return self._pick_lfu_victim(protect)
        # LRU: recency order is maintained by _touch on serve.
        # FIFO: insertion order. Either way the first candidate goes.
        for key in self._order:
            if key != protect:
                return key
        return None

    def _pick_lfu_victim(self, protect: str) -> Optional[str]:
        """Pop the least-hit live entry from the lazy min-heap.

        Heap items are (hits, admission seq, key): least hits first,
        ties oldest-admission-first — the same order the old O(n) scan
        produced, at O(log n) amortized. Items whose (seq, hits) no
        longer match the live entry are stale copies left behind by
        hits bumps, replacement, or removal; they are discarded here.
        """
        protected_item = None
        victim = None
        while self._lfu_heap:
            hits, seq, key = heapq.heappop(self._lfu_heap)
            if self._seq.get(key) != seq:
                continue  # removed or replaced since this item was pushed
            entry = self.backend.peek(key)
            if entry is None or entry.hits != hits:
                continue  # superseded by a later push with higher hits
            if key == protect:
                protected_item = (hits, seq, key)
                continue
            victim = key
            break
        if protected_item is not None:
            heapq.heappush(self._lfu_heap, protected_item)
        return victim
