"""Write-behind remote KV engine: immediate acks, background drains.

The batched engine still *completes* every write synchronously at the
drain point — the caller's simulated time advances by the write round
trips. This engine models a write-behind client (Redis ``CLIENT
REPLY OFF`` pipelines, a local write buffer in front of MongoDB): every
mutation is acknowledged immediately from a local buffer, queued into
the open *flush epoch*, and a background flusher pipelines the epoch
to the remote store off the caller's critical path.

It *is* the batched engine — a subclass over the same slot engine
(``inner``), batch window and cost pool — with three pieces added
that make the early ack safe for local readers:

* **Read-your-writes overlay.** Queued mutations are kept in a local
  overlay (latest value or a remove tombstone per key); reads answer
  from the overlay first, so a reader co-located with the writer never
  observes a pre-flush hole. Overlay answers are cost-free — they come
  from the same local buffer that acknowledged the write. A key with
  no queued mutation is read from the remote store: it takes a read
  slot in the batch window, like any batched read.
* **Flush epochs.** Mutations queue in arrival order into the open
  epoch; every :meth:`drain_latency` call (the moment the node yields
  to the network) closes it, and the background flusher applies it to
  the slot engine *in order* — each mutation takes its write slot in
  the pipeline, then is written, so a remove queued after a put can
  never be reordered ahead of it. The write cost accrues in
  :attr:`background_latency` (diagnostics) instead of the caller's
  drain.
* **``sync()`` barrier.** Callers that need remote durability (tests,
  shutdown, explicit barriers) call :meth:`sync`, which flushes
  everything and returns the simulated time the barrier takes: up to
  one ``flush_interval`` wait for the background flusher's next tick,
  plus the write drain.

``flush_interval`` is the background flusher's cadence in simulated
seconds: queued mutations reach the remote store at most one interval
(plus the write round trips) after their ack. The overlay keeps local
readers exact regardless, so the interval never shows up as staleness
*here* — but coherence accounting above (the runner's Δ bound) must
widen by it, because remotely-visible effects (a purge's removal
reaching the remote store) now lag the ack by up to that much.

Foreground cost: reads that miss the overlay pay the batched read
cost; mutations acknowledge at zero cost. ``drain_latency`` therefore
returns read cost only.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.simnet.delay import Delay
from repro.storage.backend import CacheBackend, Predicate
from repro.storage.batched import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_PER_KEY_COST,
    BatchedRemoteBackend,
)

#: Default background-flusher cadence (seconds): one in-datacenter
#: write round trip's worth of buffering, a few dozen acks per epoch.
DEFAULT_FLUSH_INTERVAL = 0.05

#: Overlay tombstone: the key has a queued, not-yet-flushed removal.
_TOMBSTONE = object()


class WriteBehindBackend(BatchedRemoteBackend):
    """A remote KV store with write-behind (asynchronously drained)
    mutations and a read-your-writes overlay."""

    kind = "write-behind"

    def __init__(
        self,
        inner: Optional[CacheBackend] = None,
        read_delay: Optional[Delay] = None,
        write_delay: Optional[Delay] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        per_key_cost: float = DEFAULT_PER_KEY_COST,
        batch_window: int = DEFAULT_BATCH_WINDOW,
        overlap: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        # NaN and inf fail this test too: a barrier would wait forever
        # or return NaN.
        if not 0 <= flush_interval < math.inf:
            raise ValueError(
                f"flush_interval must be finite and non-negative: {flush_interval}"
            )
        super().__init__(
            inner, read_delay, write_delay, per_key_cost, batch_window, overlap, rng
        )
        if len(self.inner):
            raise ValueError(
                "write-behind must start over an empty engine "
                "(its merged size accounting starts from zero)"
            )
        self.flush_interval = flush_interval
        #: Mutations of the open epoch, in arrival order:
        #: ("put", key, value, size) / ("remove", key).
        self._epoch: List[Tuple] = []
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

    # -- the storage protocol ----------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        # Read-your-writes: the local write buffer answers first,
        # cost-free (no remote round trip happens).
        overlaid = self._overlay.get(key)
        if overlaid is not None:
            value = overlaid[0]
            return None if value is _TOMBSTONE else value
        # A miss takes a read slot in the batch window, in this frame:
        # ``_charge_batched("get", is_write=False)`` inline.
        window = self._window_keys
        if window and self._window_is_write:
            self.flush()
            window = 0
        cost = self.per_key_cost
        if not window:
            cost += self.read_delay.sample(self.rng)
            self._window_is_write = False
        self._window_keys = window = window + 1
        self._pending += cost
        self.total_latency += cost
        counts = self.op_counts
        counts["get"] = counts.get("get", 0) + 1
        if window >= self.batch_window:
            self.flush()
        return self.inner.get(key)

    def peek(self, key: str) -> Optional[Any]:
        overlaid = self._overlay.get(key)
        if overlaid is None:
            return self.inner.peek(key)
        value = overlaid[0]
        return None if value is _TOMBSTONE else value

    def put(self, key: str, value: Any, size: int = 0) -> None:
        self._epoch.append(("put", key, value, size))
        refs = self._queued_refs
        refs[key] = refs.get(key, 0) + 1
        self._overlay[key] = (value, size)
        self.acks += 1
        sizes = self._sizes
        old = sizes.get(key)
        if old is not None:
            self._bytes -= old
        sizes[key] = size
        self._bytes += size

    def remove(self, key: str) -> Optional[Any]:
        size = self._sizes.pop(key, None)
        if size is None:
            return None
        self._bytes -= size
        # The ack answers from the overlay or, for a flushed entry,
        # from co-located metadata.
        previous = self.peek(key)
        self._epoch.append(("remove", key))
        refs = self._queued_refs
        refs[key] = refs.get(key, 0) + 1
        self._overlay[key] = (_TOMBSTONE, 0)
        self.acks += 1
        return previous

    # Mutations ack locally and overlay misses join the open batch
    # window key by key, so the batched forms (and the erase built on
    # them) are the protocol's defaults over the calls above — not the
    # batched engine's pipelined forms, which would bypass the overlay.
    get_many = CacheBackend.get_many
    put_many = CacheBackend.put_many

    def remove_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        # A key that is not visible has nothing to remove: a fan-out
        # purge names far more keys than a tier holds.
        sizes = self._sizes
        return CacheBackend.remove_many(self, [key for key in keys if key in sizes])

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        merged: "Dict[str, Any]" = dict(super().scan(prefix))
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
        self._overlay.clear()
        self._queued_refs.clear()
        self._sizes.clear()
        self._bytes = 0
        super().clear()
        # The wipe itself is a mutation the remote store must see, but
        # its cost is the background flusher's, not the caller's.
        self.background_latency += super().drain_latency()

    # -- flushing ----------------------------------------------------------

    @property
    def queued_mutations(self) -> int:
        """Acknowledged mutations not yet applied to the slot engine."""
        return len(self._epoch)

    def _flush_epoch(self) -> None:
        """Apply the open epoch to the slot engine, in arrival order:
        each mutation takes its write slot in the pipeline, then is
        written. Its overlay entry goes with the last queued mutation
        of its key — the slot engine then holds exactly the overlay's
        state, so dropping it is invisible to readers."""
        epoch, self._epoch = self._epoch, []
        inner = self.inner
        refs = self._queued_refs
        for mutation in epoch:
            key = mutation[1]
            if mutation[0] == "put":
                self._charge_batched("put_many", is_write=True)
                inner.put(key, mutation[2], mutation[3])
            else:
                self._charge_batched("remove_many", is_write=True)
                inner.remove(key)
            remaining = refs[key] - 1
            if remaining:
                refs[key] = remaining
            else:
                del refs[key]
                del self._overlay[key]
        self.epochs_flushed += 1
        self.mutations_flushed += len(epoch)

    def sync(self) -> float:
        """Barrier: flush everything; returns the simulated wait.

        The wait covers the background flusher's next tick (up to one
        ``flush_interval`` when anything was queued) plus the write
        round trips for the flushed mutations.
        """
        if not self._epoch:
            return 0.0
        # Whatever is already pending (read cost since the last drain)
        # joins the barrier wait — a barrier waits for *everything*.
        outstanding = super().drain_latency()
        self._flush_epoch()
        return outstanding + self.flush_interval + super().drain_latency()

    # -- GDPR erasure --------------------------------------------------------

    def queued_matching(self, predicate: Predicate) -> List[str]:
        """Keys of queued, not-yet-flushed puts whose bytes match."""
        return [
            mutation[1]
            for mutation in self._epoch
            if mutation[0] == "put" and predicate(mutation[1], mutation[2])
        ]

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
        epoch = self._epoch
        affected: set = set()
        scrubbed = 0
        for index, mutation in enumerate(epoch):
            if mutation[0] == "put" and predicate(mutation[1], mutation[2]):
                epoch[index] = ("remove", mutation[1])
                affected.add(mutation[1])
                scrubbed += 1
        if not scrubbed:
            return 0
        last: Dict[str, Tuple] = {}
        for mutation in epoch:
            if mutation[1] in affected:
                last[mutation[1]] = mutation
        for key, mutation in last.items():
            if mutation[0] == "put":
                self._overlay[key] = (mutation[2], mutation[3])
            else:
                self._overlay[key] = (_TOMBSTONE, 0)
                size = self._sizes.pop(key, None)
                if size is not None:
                    self._bytes -= size
        return scrubbed

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        # Bypass the read-your-writes overlay entirely: bytes are
        # residual wherever they physically sit — in the remote store
        # (one charged scan) even when masked by a queued tombstone,
        # and in queued put payloads awaiting flush. (Every live
        # overlay value is backed by a queued mutation, so the queue
        # covers the overlay too.)
        residual = list(super().residuals_matching(predicate))
        residual.extend(f"queued:{key}" for key in self.queued_matching(predicate))
        return residual

    # -- the cost pool -------------------------------------------------------

    def drain_latency(self, concurrent: float = 0.0) -> float:
        if not (self._window_keys or self._pending or self._epoch):
            # Nothing read since the last drain and nothing queued:
            # there is no pipeline to send and no cost to pay.
            return 0.0
        # Foreground: the read cost accrued since the last drain (the
        # only cost-bearing operations between drains — mutations ack
        # from the local buffer).
        foreground = super().drain_latency(concurrent)
        # Background: the node yields to the network, which is when the
        # flusher gets to run — the open epoch is applied, and its
        # write cost lands in background_latency, off the caller's
        # critical path.
        if self._epoch:
            self._flush_epoch()
            self.background_latency += super().drain_latency()
        return foreground
