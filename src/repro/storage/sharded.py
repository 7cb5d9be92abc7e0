"""Hash-partitioned engine: N sub-backends behind one interface.

Models a concurrent-map / partitioned-store backend: keys are routed
to one of ``n_shards`` sub-engines by a stable hash (CRC-32, so shard
placement survives process restarts and Python hash randomization).
A shard has no capacity of its own: like every engine it stores what
it is given, and the policy layer above decides what goes when the
cache as a whole is full.
"""

from __future__ import annotations

import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.storage.backend import CacheBackend, InMemoryBackend, Predicate


def shard_index_of(key: str, n_shards: int) -> int:
    """Stable shard routing shared by the engine and its tests."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


class ShardedBackend(CacheBackend):
    """N hash-partitioned sub-engines behind one backend interface."""

    kind = "sharded"

    def __init__(
        self,
        n_shards: int = 8,
        shard_factory: Optional[Callable[[], CacheBackend]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        self.n_shards = n_shards
        factory = shard_factory or InMemoryBackend
        self.shards: List[CacheBackend] = [factory() for _ in range(n_shards)]

    # -- routing ----------------------------------------------------------

    def shard_index(self, key: str) -> int:
        return shard_index_of(key, self.n_shards)

    def shard_of(self, key: str) -> CacheBackend:
        return self.shards[self.shard_index(key)]

    # -- the storage protocol ---------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        return self.shard_of(key).get(key)

    def peek(self, key: str) -> Optional[Any]:
        return self.shard_of(key).peek(key)

    def put(self, key: str, value: Any, size: int = 0) -> None:
        self.shard_of(key).put(key, value, size)

    def remove(self, key: str) -> Optional[Any]:
        return self.shard_of(key).remove(key)

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        # A prefix scan must visit ALL shards: hash routing scatters
        # keys sharing a prefix across the whole partition set. The
        # visits are eager, get_many-style — one charged round trip
        # per shard at call time — so the simulated cost is exactly
        # one scan per shard (O(n_shards), independent of entry count)
        # and does not depend on how much of the iterator the caller
        # consumes, or on when it is consumed relative to a latency
        # drain. (The previous lazy chain deferred each shard's charge
        # to iteration time and skipped unvisited shards entirely.)
        results: List[Tuple[str, Any]] = []
        for shard in self.shards:
            results.extend(shard.scan(prefix))
        return iter(results)

    # -- batched operations (scatter-gather across shards) -----------------

    def _group_keys(self, keys: Iterable[str]) -> Dict[int, List[str]]:
        grouped: Dict[int, List[str]] = {}
        for key in keys:
            grouped.setdefault(self.shard_index(key), []).append(key)
        return grouped

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        # Route each shard its own sub-batch, so a batched sub-engine
        # sees one pipelined MGET per shard rather than N singles.
        found: Dict[str, Any] = {}
        for index, shard_keys in self._group_keys(keys).items():
            found.update(self.shards[index].get_many(shard_keys))
        return found

    def put_many(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        grouped: Dict[int, List[Tuple[str, Any, int]]] = {}
        for key, value, size in items:
            grouped.setdefault(self.shard_index(key), []).append(
                (key, value, size)
            )
        for index, shard_items in grouped.items():
            self.shards[index].put_many(shard_items)

    def remove_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        removed: Dict[str, Any] = {}
        for index, shard_keys in self._group_keys(keys).items():
            removed.update(self.shards[index].remove_many(shard_keys))
        return removed

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def bytes_used(self) -> int:
        return sum(shard.bytes_used for shard in self.shards)

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()

    # -- deep views for GDPR: gathered across shards ----------------------

    def scrub_pending(self, predicate: Predicate) -> int:
        # Per-shard queues (write-behind sub-engines) scrub locally.
        return sum(shard.scrub_pending(predicate) for shard in self.shards)

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        # Ask each shard directly so sub-engine overlays are bypassed.
        residual: List[str] = []
        for shard in self.shards:
            residual.extend(shard.residuals_matching(predicate))
        return residual

    def queued_matching(self, predicate: Predicate) -> List[str]:
        return [
            key
            for shard in self.shards
            for key in shard.queued_matching(predicate)
        ]

    def sync(self) -> float:
        # Shard barriers run in parallel partitions; the conservative
        # serialized composition matches drain_latency's.
        return sum(shard.sync() for shard in self.shards)

    # -- simulated operation cost ------------------------------------------

    def pending_latency(self) -> float:
        return sum(shard.pending_latency() for shard in self.shards)

    def drain_latency(self, concurrent: float = 0.0) -> float:
        # Shards drain independently; their costs are summed (the
        # conservative, serialized composition). Overlap clipping is
        # the wrapping engine's job — pass ``concurrent`` through only
        # when a single shard carries the whole pool, so the pool is
        # never clipped against the same transit twice.
        draining = [
            shard for shard in self.shards if shard.pending_latency() > 0
        ]
        if len(draining) == 1:
            return draining[0].drain_latency(concurrent)
        return sum(shard.drain_latency() for shard in draining)
