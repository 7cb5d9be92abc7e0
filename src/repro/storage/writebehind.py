"""Write-behind remote KV engine: immediate acks, background drains.

The batched engine still *completes* every write synchronously at the
drain point — the caller's simulated time advances by the write round
trips. This engine models a write-behind client (Redis ``CLIENT
REPLY OFF`` pipelines, a local write buffer in front of MongoDB): every
mutation is acknowledged immediately from a local buffer, queued into
the current *flush epoch*, and a background flusher applies sealed
epochs to the wrapped remote engine off the caller's critical path.

Three pieces make that safe for local readers:

* **Read-your-writes overlay.** Queued mutations are kept in a local
  overlay (latest value or a remove tombstone per key); reads answer
  from the overlay first, so a reader co-located with the writer never
  observes a pre-flush hole. Overlay answers are cost-free — they come
  from the same local buffer that acknowledged the write.
* **Flush epochs.** Mutations queue in arrival order into the current
  epoch; every :meth:`drain_latency` call (the moment the node yields
  to the network) seals the epoch and the background flusher applies
  all sealed epochs to the inner engine *in order* — a remove queued
  after a put can never be reordered ahead of it. The inner engine's
  write cost for flushed epochs accrues in :attr:`background_latency`
  (diagnostics) instead of the caller's drain.
* **``sync()`` barrier.** Callers that need remote durability (tests,
  shutdown, explicit barriers) call :meth:`sync`, which flushes
  everything and returns the simulated time the barrier takes: up to
  one ``flush_interval`` wait for the background flusher's next tick,
  plus the inner engine's write drain.

``flush_interval`` is the background flusher's cadence in simulated
seconds: queued mutations reach the remote store at most one interval
(plus the write round trips) after their ack. The overlay keeps local
readers exact regardless, so the interval never shows up as staleness
*here* — but coherence accounting above (the runner's Δ bound) must
widen by it, because remotely-visible effects (a purge's removal
reaching the wrapped store) now lag the ack by up to that much.

Foreground cost: reads that miss the overlay pass through to the inner
engine and pay its (batched) read cost; mutations acknowledge at zero
cost. ``drain_latency`` therefore returns read cost only.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.simnet.delay import Delay
from repro.storage.backend import (
    CacheBackend,
    DelegatingBackend,
    Predicate,
)
from repro.storage.batched import BatchedRemoteBackend

#: Default background-flusher cadence (seconds): one in-datacenter
#: write round trip's worth of buffering, a few dozen acks per epoch.
DEFAULT_FLUSH_INTERVAL = 0.05

#: Overlay tombstone: the key has a queued, not-yet-flushed removal.
_TOMBSTONE = object()


class WriteBehindBackend(DelegatingBackend):
    """A remote KV store with write-behind (asynchronously drained)
    mutations and a read-your-writes overlay."""

    kind = "write-behind"

    def __init__(
        self,
        inner: Optional[CacheBackend] = None,
        read_delay: Optional[Delay] = None,
        write_delay: Optional[Delay] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        per_key_cost: Optional[float] = None,
        batch_window: Optional[int] = None,
        overlap: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if flush_interval < 0:
            raise ValueError(
                f"flush_interval must be >= 0: {flush_interval}"
            )
        if inner is None:
            kwargs = {}
            if per_key_cost is not None:
                kwargs["per_key_cost"] = per_key_cost
            if batch_window is not None:
                kwargs["batch_window"] = batch_window
            inner = BatchedRemoteBackend(
                read_delay=read_delay,
                write_delay=write_delay,
                overlap=overlap,
                rng=rng,
                **kwargs,
            )
        if len(inner):
            raise ValueError(
                "write-behind must wrap an initially empty engine "
                "(its merged size accounting starts from zero)"
            )
        super().__init__(inner)
        self.flush_interval = flush_interval
        #: Mutations of the current (open) epoch, in arrival order:
        #: ("put", key, value, size) / ("remove", key).
        self._epoch: List[Tuple] = []
        #: Sealed epochs awaiting the background flusher, oldest first.
        self._sealed: List[List[Tuple]] = []
        #: Read-your-writes overlay: latest queued value (or tombstone)
        #: per key, plus how many queued mutations still reference it.
        self._overlay: Dict[str, Tuple[Any, int]] = {}
        self._queued_refs: Dict[str, int] = {}
        #: Declared size of every *visible* key — the merged view's
        #: byte/length accounting, independent of flush progress.
        self._sizes: Dict[str, int] = {}
        self._bytes = 0
        #: Diagnostics.
        self.background_latency = 0.0
        self.epochs_flushed = 0
        self.mutations_flushed = 0
        self.acks = 0

    # -- bookkeeping helpers -----------------------------------------------

    def _visible(self, key: str) -> bool:
        return key in self._sizes

    def _account_put(self, key: str, size: int) -> None:
        old = self._sizes.get(key)
        if old is not None:
            self._bytes -= old
        self._sizes[key] = size
        self._bytes += size

    def _account_remove(self, key: str) -> None:
        old = self._sizes.pop(key, None)
        if old is not None:
            self._bytes -= old

    def _queue(self, mutation: Tuple) -> None:
        key = mutation[1]
        self._epoch.append(mutation)
        self._queued_refs[key] = self._queued_refs.get(key, 0) + 1
        if mutation[0] == "put":
            self._overlay[key] = (mutation[2], mutation[3])
        else:
            self._overlay[key] = (_TOMBSTONE, 0)
        self.acks += 1

    # -- the storage protocol ----------------------------------------------

    def _overlaid(self, key: str, ask_inner) -> Optional[Any]:
        """Read-your-writes: the local write buffer answers first,
        cost-free (no remote round trip happens); only a key with no
        queued mutation is asked of the inner engine."""
        overlaid = self._overlay.get(key)
        if overlaid is None:
            return ask_inner(key)
        value = overlaid[0]
        return None if value is _TOMBSTONE else value

    def get(self, key: str) -> Optional[Any]:
        return self._overlaid(key, self.inner.get)

    def peek(self, key: str) -> Optional[Any]:
        return self._overlaid(key, self.inner.peek)

    def put(self, key: str, value: Any, size: int = 0) -> None:
        self._queue(("put", key, value, size))
        self._account_put(key, size)

    def remove(self, key: str) -> Optional[Any]:
        if not self._visible(key):
            return None
        # The ack answers from the overlay or, for a flushed entry,
        # from co-located metadata.
        previous = self.peek(key)
        self._queue(("remove", key))
        self._account_remove(key)
        return previous

    # Mutations ack locally and overlay misses join the inner engine's
    # open batch window key by key, so the batched forms (and the erase
    # built on them) are the protocol's defaults over the calls above —
    # not DelegatingBackend's forwards, which would bypass the overlay.
    get_many = CacheBackend.get_many
    put_many = CacheBackend.put_many
    remove_many = CacheBackend.remove_many
    erase_matching = CacheBackend.erase_matching

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        merged: "Dict[str, Any]" = dict(self.inner.scan(prefix))
        for key, (value, _) in self._overlay.items():
            if not key.startswith(prefix):
                continue
            if value is _TOMBSTONE:
                merged.pop(key, None)
            else:
                merged[key] = value
        return iter(list(merged.items()))

    def __len__(self) -> int:
        return len(self._sizes)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def keys(self) -> List[str]:
        return list(self._sizes)

    def __contains__(self, key: str) -> bool:
        return key in self._sizes

    def clear(self) -> None:
        # A full wipe supersedes everything still queued.
        self._epoch.clear()
        self._sealed.clear()
        self._overlay.clear()
        self._queued_refs.clear()
        self._sizes.clear()
        self._bytes = 0
        self.inner.clear()
        # The wipe itself is a mutation the remote store must see, but
        # its cost is the background flusher's, not the caller's.
        self.background_latency += self.inner.drain_latency()

    # -- flushing ----------------------------------------------------------

    @property
    def queued_mutations(self) -> int:
        """Acknowledged mutations not yet applied to the inner engine."""
        return len(self._epoch) + sum(len(e) for e in self._sealed)

    def _seal_epoch(self) -> None:
        if self._epoch:
            self._sealed.append(self._epoch)
            self._epoch = []

    def _release_overlay(self, key: str) -> None:
        remaining = self._queued_refs[key] - 1
        if remaining:
            self._queued_refs[key] = remaining
            return
        # No queued mutation references the key anymore: the inner
        # engine now holds exactly the overlay's state, so dropping
        # the overlay entry is invisible to readers.
        del self._queued_refs[key]
        del self._overlay[key]

    def _flush_sealed(self) -> int:
        """Apply all sealed epochs to the inner engine, in order.

        Consecutive same-type mutations travel as one batched inner
        operation; a type turn (put → remove or back) cuts the batch so
        arrival order is preserved key-exactly.
        """
        flushed = 0
        for epoch in self._sealed:
            index = 0
            while index < len(epoch):
                kind = epoch[index][0]
                run = [epoch[index]]
                index += 1
                while index < len(epoch) and epoch[index][0] == kind:
                    run.append(epoch[index])
                    index += 1
                if kind == "put":
                    self.inner.put_many(
                        [(key, value, size) for _, key, value, size in run]
                    )
                else:
                    self.inner.remove_many([key for _, key in run])
                for mutation in run:
                    self._release_overlay(mutation[1])
                flushed += len(run)
            self.epochs_flushed += 1
        self._sealed.clear()
        self.mutations_flushed += flushed
        return flushed

    def sync(self) -> float:
        """Barrier: flush everything; returns the simulated wait.

        The wait covers the background flusher's next tick (up to one
        ``flush_interval`` when anything was queued) plus the inner
        engine's write round trips for the flushed mutations.
        """
        self._seal_epoch()
        if not self._sealed:
            return 0.0
        # Whatever is already pending (read cost since the last drain)
        # joins the barrier wait — a barrier waits for *everything*.
        outstanding = self.inner.drain_latency()
        self._flush_sealed()
        return outstanding + self.flush_interval + self.inner.drain_latency()

    # -- GDPR erasure --------------------------------------------------------

    def queued_matching(self, predicate: Predicate) -> List[str]:
        """Keys of queued, not-yet-flushed puts whose bytes match."""
        hits: List[str] = []
        for epoch in (*self._sealed, self._epoch):
            for mutation in epoch:
                if mutation[0] == "put" and predicate(
                    mutation[1], mutation[2]
                ):
                    hits.append(mutation[1])
        return hits

    def scrub_pending(self, predicate: Predicate) -> int:
        """Cancel queued matching puts in place; tombstone the overlay.

        A queued remove supersedes a queued put at *flush* time, but
        until then the put's payload bytes sit acknowledged in the
        epoch queue — exactly the async buffer retrofitted deletion
        paths miss. Each matching ``put`` becomes a ``remove`` in its
        own queue slot, so arrival order and overlay refcounts are
        untouched while the buffered bytes are gone *now*, not at
        flush time. The overlay is then recomputed for the affected
        keys: a key whose last queued mutation was scrubbed ends
        tombstoned (and leaves the visible accounting); a later
        non-matching put survives untouched.
        """
        affected: set = set()
        scrubbed = 0
        for epoch in (*self._sealed, self._epoch):
            for index, mutation in enumerate(epoch):
                if mutation[0] == "put" and predicate(
                    mutation[1], mutation[2]
                ):
                    epoch[index] = ("remove", mutation[1])
                    affected.add(mutation[1])
                    scrubbed += 1
        if not scrubbed:
            return 0
        last: Dict[str, Tuple] = {}
        for epoch in (*self._sealed, self._epoch):
            for mutation in epoch:
                if mutation[1] in affected:
                    last[mutation[1]] = mutation
        for key, mutation in last.items():
            if mutation[0] == "put":
                self._overlay[key] = (mutation[2], mutation[3])
            else:
                self._overlay[key] = (_TOMBSTONE, 0)
                if self._visible(key):
                    self._account_remove(key)
        return scrubbed

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        # Bypass the read-your-writes overlay entirely: bytes are
        # residual wherever they physically sit — in the inner engine
        # even when masked by a queued tombstone, and in queued put
        # payloads awaiting flush. (Every live overlay value is backed
        # by a queued mutation, so the queues cover the overlay too.)
        residual = list(self.inner.residuals_matching(predicate))
        residual.extend(
            f"queued:{key}" for key in self.queued_matching(predicate)
        )
        return residual

    # -- the cost pool (pending_latency is the inner engine's) ------------

    def drain_latency(self, concurrent: float = 0.0) -> float:
        # Foreground: the read cost accrued since the last drain (the
        # only cost-bearing operations between drains — mutations ack
        # from the local buffer).
        foreground = self.inner.drain_latency(concurrent)
        # Background: the node yields to the network, which is when the
        # flusher gets to run — seal the open epoch and apply every
        # sealed one. The write cost lands in background_latency, off
        # the caller's critical path.
        self._seal_epoch()
        if self._sealed:
            self._flush_sealed()
            self.background_latency += self.inner.drain_latency()
        return foreground
