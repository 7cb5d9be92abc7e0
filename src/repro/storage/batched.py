"""Batched remote KV engine: pipelined multi-key operations.

The serialized :class:`~repro.storage.remote.SimulatedRemoteBackend`
charges every get/put its own round trip, so a multi-asset page or a
fan-out purge pays N full round trips. This engine models a pipelined
client (Redis MGET/MSET, pipelined DEL): keys are coalesced into
*batches*, and the latency model charges **one round trip per flushed
batch plus a small per-key marginal cost** — the amortization every
real batched protocol provides.

Batching mechanics:

* Explicit :meth:`get_many` / :meth:`put_many` / :meth:`remove_many`
  calls pipeline their keys directly, chunked at ``batch_window`` keys
  per flushed batch.
* Single-key calls coalesce into an *open batch window*: the first
  operation after a flush opens a window and is charged the full round
  trip; subsequent same-direction operations join it for the marginal
  cost only. The window flushes when it reaches ``batch_window`` keys,
  when the operation direction turns (reads and writes are distinct
  pipeline commands here), or at the next :meth:`drain_latency` call —
  draining is the moment the node yields to the network, which is when
  a real pipeline would be sent.
* Reads and writes draw their round trips from the same delay
  distributions as the serialized engine, so comparisons run at
  identical per-op medians; only the *number* of round trips changes.

With ``overlap=True`` the engine additionally clips the drained pool
against the concurrent network transit passed to
:meth:`drain_latency` — accrued storage latency hides under the
transfer instead of adding to it, and only the excess (if any) is paid
as extra simulated time. The pool is emptied exactly once either way.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.simnet.delay import Delay, LogNormalDelay
from repro.storage.backend import (
    CacheBackend,
    DelegatingBackend,
    InMemoryBackend,
    Predicate,
)

#: Default per-operation medians (seconds): an in-datacenter Redis
#: round trip — sub-millisecond reads, slightly costlier writes.
DEFAULT_READ_MEDIAN = 0.0008
DEFAULT_WRITE_MEDIAN = 0.0012
DEFAULT_SIGMA = 0.3

#: Default per-key marginal cost (seconds) within a flushed batch — a
#: few dozen microseconds of parse/queue time per pipelined key,
#: roughly 1/16 of the default read round trip.
DEFAULT_PER_KEY_COST = 0.00005

#: Default maximum keys coalesced into one flushed batch.
DEFAULT_BATCH_WINDOW = 16


class BatchedRemoteBackend(DelegatingBackend):
    """A remote KV store with pipelined multi-key operations."""

    kind = "batched"

    def __init__(
        self,
        inner: Optional[CacheBackend] = None,
        read_delay: Optional[Delay] = None,
        write_delay: Optional[Delay] = None,
        per_key_cost: float = DEFAULT_PER_KEY_COST,
        batch_window: int = DEFAULT_BATCH_WINDOW,
        overlap: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if per_key_cost < 0:
            raise ValueError(f"per_key_cost must be >= 0: {per_key_cost}")
        if batch_window < 1:
            raise ValueError(f"batch_window must be >= 1: {batch_window}")
        super().__init__(inner if inner is not None else InMemoryBackend())
        self.read_delay = read_delay or LogNormalDelay(
            median=DEFAULT_READ_MEDIAN, sigma=DEFAULT_SIGMA
        )
        self.write_delay = write_delay or LogNormalDelay(
            median=DEFAULT_WRITE_MEDIAN, sigma=DEFAULT_SIGMA
        )
        self.per_key_cost = per_key_cost
        self.batch_window = batch_window
        self.overlap = overlap
        self.rng = rng or random.Random(0)
        self._pending = 0.0
        #: Open batch window: keys coalesced since the last flush, and
        #: whether the window is a read or a write pipeline.
        self._window_keys = 0
        self._window_is_write = False
        #: Diagnostics.
        self.total_latency = 0.0
        self.overlap_hidden = 0.0
        self.batches_flushed = 0
        self.keys_batched = 0
        self.op_counts: Dict[str, int] = {}

    # -- the batching latency model ----------------------------------------

    def flush(self) -> None:
        """Close the open batch window; the next operation pays a fresh
        round trip. Flushing never charges anything itself — the window
        cost accrued as its keys arrived."""
        if self._window_keys:
            self.batches_flushed += 1
            self.keys_batched += self._window_keys
        self._window_keys = 0

    def _charge_batched(self, op: str, is_write: bool) -> None:
        """Accrue the cost of one key joining the pipeline."""
        if self._window_keys and self._window_is_write != is_write:
            # Direction turn: reads and writes are separate pipeline
            # commands, so the open window is sent first.
            self.flush()
        cost = self.per_key_cost
        if self._window_keys == 0:
            delay = self.write_delay if is_write else self.read_delay
            cost += delay.sample(self.rng)
            self._window_is_write = is_write
        self._window_keys += 1
        self._pending += cost
        self.total_latency += cost
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self._window_keys >= self.batch_window:
            self.flush()

    # -- the charged operations: one pipeline slot per key, then forward ---

    def get(self, key: str) -> Optional[Any]:
        self._charge_batched("get", is_write=False)
        return self.inner.get(key)

    def put(self, key: str, value: Any, size: int = 0) -> None:
        self._charge_batched("put", is_write=True)
        self.inner.put(key, value, size)

    def remove(self, key: str) -> Optional[Any]:
        self._charge_batched("remove", is_write=True)
        return self.inner.remove(key)

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        self._charge_batched("scan", is_write=False)
        return self.inner.scan(prefix)

    def clear(self) -> None:
        self._charge_batched("clear", is_write=True)
        self.inner.clear()

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        keys = list(keys)
        for _ in keys:
            self._charge_batched("get_many", is_write=False)
        return self.inner.get_many(keys)

    def put_many(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        items = list(items)
        for _ in items:
            self._charge_batched("put_many", is_write=True)
        self.inner.put_many(items)

    def remove_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        keys = list(keys)
        for _ in keys:
            self._charge_batched("remove_many", is_write=True)
        return self.inner.remove_many(keys)

    # An erase is a charged scan plus a pipelined removal, not a free
    # pass-through: the protocol's default over the charged core.
    erase_matching = CacheBackend.erase_matching

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        # The completeness check reads the remote store: one scan's
        # round trip, then the wrapped engine's own deep view.
        self._charge_batched("scan", is_write=False)
        return self.inner.residuals_matching(predicate)

    # -- latency accounting ------------------------------------------------

    def pending_latency(self) -> float:
        return self._pending

    def drain_latency(self, concurrent: float = 0.0) -> float:
        self.flush()
        pending = self._pending
        self._pending = 0.0
        if not self.overlap:
            return pending
        charged = max(0.0, pending - max(0.0, concurrent))
        self.overlap_hidden += pending - charged
        return charged
