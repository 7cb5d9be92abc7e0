"""TTL-aware cache policy layer over a pluggable storage engine.

:class:`CacheStore` owns everything *about* cached responses —
freshness semantics (shared vs. private), capacity limits and LRU
eviction — while the entries themselves live in a
:class:`~repro.storage.backend.CacheBackend` engine chosen by
configuration (in-memory, sharded, or simulated-remote; see
:mod:`repro.storage`). The policy layer keeps its own recency order,
so picking a victim is O(1) regardless of which engine holds the data,
and it is the only eviction authority: an engine stores what it is
given until this layer calls ``remove``, so the recency order and the
engine's key set cannot drift apart.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.http.freshness import is_fresh_at
from repro.http.messages import Response
from repro.storage.backend import CacheBackend, InMemoryBackend


@dataclass
class CacheEntry:
    """One stored response plus what admission knew about it."""

    key: str
    response: Response
    stored_at: float
    size_bytes: int
    #: Filled by :func:`repro.gdpr.matching.identity_text` on the first
    #: GDPR visit. A stored entry is replaced, never edited, so it
    #: cannot go stale.
    _identity_text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )


def _payload_size(response: Response) -> int:
    """Size accounting: ``Content-Length`` where the response has a
    usable one, else body size.

    ``str`` bodies are sized by their UTF-8 encoding — character count
    would undercount multi-byte content.
    """
    if response.content_length is not None:
        return response.content_length
    body = response.body
    if isinstance(body, str):
        return len(body.encode("utf-8"))
    return len(body) if isinstance(body, bytes) else 0


class CacheStore:
    """A bounded map of cache keys to responses.

    ``shared`` selects shared- vs. private-cache freshness semantics
    (``s-maxage`` vs ``max-age``, ``private`` handling). Capacity may be
    bounded by entry count and/or total payload bytes; eviction is
    LRU. Entries are held by ``backend`` (default: the classic
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
        backend: Optional[CacheBackend] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        self.shared = shared
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.backend = backend if backend is not None else InMemoryBackend()
        #: Live keys, least recently stored-or-served first.
        self._order: "OrderedDict[str, None]" = OrderedDict()
        self.evictions = 0

    # -- capacity ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: str) -> bool:
        return key in self._order

    def keys(self) -> List[str]:
        return list(self._order)

    def __iter__(self) -> Iterator[CacheEntry]:
        for key in list(self._order):
            entry = self.backend.peek(key)
            if entry is not None:
                yield entry

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
        self._evict_if_needed(protect=key)
        return entry

    def get(self, key: str, now: float) -> Optional[CacheEntry]:
        """Return the entry regardless of freshness (None if absent)."""
        entry = self.backend.get(key)
        if entry is None:
            return None
        self._order.move_to_end(key)
        return entry

    def get_fresh(self, key: str, now: float) -> Optional[CacheEntry]:
        """Return the entry only if it is still fresh at ``now``.

        A stale lookup is a miss: it must not bump LRU recency, or
        stale entries would look hot when a victim is picked.
        """
        entry = self.backend.get(key)
        if entry is None:
            return None
        if not is_fresh_at(entry.response, now, self.shared):
            return None
        self._order.move_to_end(key)
        return entry

    def get_fresh_many(
        self, keys: List[str], now: float
    ) -> Dict[str, CacheEntry]:
        """Batched :meth:`get_fresh`: the fresh entries among ``keys``.

        One backend ``get_many`` covers the whole lookup, so a batched
        engine charges ~one round trip for a multi-asset page instead
        of one per asset. Freshness filtering and recency stay up here
        in the policy layer, exactly as for single lookups.
        """
        fresh: Dict[str, CacheEntry] = {}
        for key, entry in self.backend.get_many(keys).items():
            if is_fresh_at(entry.response, now, self.shared):
                self._order.move_to_end(key)
                fresh[key] = entry
        return fresh

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Look without touching recency."""
        return self.backend.peek(key)

    def remove(self, key: str) -> bool:
        """Drop an entry; returns whether it existed."""
        if self.backend.remove(key) is None:
            return False
        self._order.pop(key, None)
        return True

    def remove_many(self, keys: List[str]) -> int:
        """Batched :meth:`remove`; returns how many entries existed.

        The backend sees one ``remove_many`` — a batched engine turns a
        fan-out purge's N deletions into ~one pipelined round trip.
        """
        removed = self.backend.remove_many(keys)
        for key in removed:
            self._order.pop(key, None)
        return len(removed)

    def erase_matching(self, predicate) -> List[str]:
        """Drop every entry whose ``(key, entry)`` matches.

        The policy-level erasure walk: victims are found through the
        key index (reaches every shard) and removed with one batched
        ``remove_many``, so the recency order stays consistent —
        erasing behind the policy layer's back would leave phantom
        keys in it.
        """
        victims = [
            key
            for key in list(self._order)
            if (entry := self.backend.peek(key)) is not None
            and predicate(key, entry)
        ]
        if victims:
            self.remove_many(victims)
        return victims

    # -- eviction ---------------------------------------------------------

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
            # Least recently used first; the entry just stored is never
            # its own victim.
            victim = next(
                (key for key in self._order if key != protect), None
            )
            if victim is None:
                # The new entry alone exceeds capacity: keep it anyway
                # (a cache that cannot hold its largest object would
                # thrash forever).
                break
            self.remove(victim)
            self.evictions += 1
