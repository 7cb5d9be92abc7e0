"""The storage-engine protocol, stated once.

A :class:`CacheBackend` is pure keyed storage: it maps string keys to
opaque values with a caller-declared size, and knows nothing about
HTTP, freshness, or eviction *policy* — that lives in the layers above
(:class:`repro.cdn.cache.CacheStore` for caches,
:class:`repro.origin.store.DocumentStore` for the origin).

The protocol is *closed*: every name a caller may use on a backend is
declared on :class:`CacheBackend`, so no caller ever probes for a
capability. It has four parts.

1. **The core an engine must write**: ``get``, ``put``, ``remove``,
   ``scan``, ``__len__``, ``bytes_used``, ``clear``.
2. **Derived defaults** over the core: the batched forms
   (``get_many`` / ``put_many`` / ``remove_many`` loop the single-key
   calls; engines with a pipelined wire protocol override them to
   charge one round trip per batch), ``peek`` (metadata access for the
   co-located policy layer — it must never accrue cost), ``keys``,
   ``__contains__`` and ``erase_matching``.
3. **Deep views for GDPR**: ``scrub_pending``, ``residuals_matching``,
   ``queued_matching`` and the ``sync`` barrier look *behind* the read
   view, into buffers an engine keeps on its own. An engine without
   buffers has nothing there, which is what the defaults answer.
4. **The cost pool**: engines with a simulated operation cost accrue
   it in a pending pool; the transport layer calls
   :meth:`drain_latency` and converts the pool into simulated time.
   Local engines always report zero. ``drain_latency`` takes the
   network transit the caller is about to pay concurrently: serialized
   engines ignore it, overlap-capable engines clip the pool against
   it. Either way one drain empties the pool — latency is never
   drained twice.

An engine never drops an entry on its own initiative: it stores what
it is given until :meth:`remove`, :meth:`clear` or an erase tells it
otherwise. Capacity is the policy layer's decision alone, so calls run
one way only — policy → engine — and there is nothing for an engine to
report back.

A *wrapper* engine derives from :class:`DelegatingBackend`, which
forwards the whole surface to the engine it wraps; a wrapper then
overrides only what it changes, and cannot forget a deep view.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
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

#: A ``(key, value)`` test, e.g. "belongs to this data subject".
Predicate = Callable[[str, Any], bool]


class CacheBackend(ABC):
    """Uniform keyed-storage protocol behind every cache tier."""

    #: Engine identifier (matches the ``BackendSpec.kind`` registry).
    kind: str = "abstract"

    # -- the core every engine writes -------------------------------------

    @abstractmethod
    def get(self, key: str) -> Optional[Any]:
        """The stored value, or ``None`` (a full, cost-bearing read)."""

    @abstractmethod
    def put(self, key: str, value: Any, size: int = 0) -> None:
        """Store (or replace) a value; ``size`` feeds byte accounting."""

    @abstractmethod
    def remove(self, key: str) -> Optional[Any]:
        """Drop a key; returns the removed value or ``None``."""

    @abstractmethod
    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs whose key starts with ``prefix``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    @property
    @abstractmethod
    def bytes_used(self) -> int:
        """Sum of the declared sizes of all stored entries."""

    @abstractmethod
    def clear(self) -> None:
        """Drop everything."""

    # -- derived defaults over the core -----------------------------------

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batched read: the stored values of the ``keys`` that exist."""
        found: Dict[str, Any] = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    def put_many(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        """Batched write of ``(key, value, size)`` triples."""
        for key, value, size in items:
            self.put(key, value, size)

    def remove_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batched removal; returns the removed ``{key: value}`` map."""
        removed: Dict[str, Any] = {}
        for key in keys:
            value = self.remove(key)
            if value is not None:
                removed[key] = value
        return removed

    def peek(self, key: str) -> Optional[Any]:
        """Cost-free metadata access for the co-located policy layer."""
        return self.get(key)

    def keys(self) -> List[str]:
        return [key for key, _ in self.scan()]

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    def erase_matching(self, predicate: Predicate) -> Dict[str, Any]:
        """Remove every entry whose ``(key, value)`` matches.

        One scan to find, one batched removal to drop — sharded
        engines scatter-gather the removal, batched engines pipeline
        it. Returns the removed ``{key: value}`` map.
        """
        matched = [key for key, value in self.scan() if predicate(key, value)]
        return self.remove_many(matched) if matched else {}

    # -- deep views for GDPR: behind the read view ------------------------

    def scrub_pending(self, predicate: Predicate) -> int:
        """Scrub matching bytes out of not-yet-applied mutation queues;
        returns the number of queued mutations scrubbed."""
        return 0

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        """Locations still holding matching bytes, bypassing overlays.

        The completeness check behind the GDPR gate: after an erase
        walk this must come back empty. An engine with internal
        buffers looks *inside* them rather than through its merged
        view, so a tombstone can never mask surviving bytes.
        """
        return [key for key, value in self.scan() if predicate(key, value)]

    def queued_matching(self, predicate: Predicate) -> List[str]:
        """Keys of acknowledged, not-yet-applied puts whose bytes match."""
        return []

    def sync(self) -> float:
        """Durability barrier: flush asynchronous buffers, if any;
        returns the simulated time the barrier takes."""
        return 0.0

    # -- the cost pool ----------------------------------------------------

    def pending_latency(self) -> float:
        """Accrued, not-yet-drained simulated latency in seconds."""
        return 0.0

    def drain_latency(self, concurrent: float = 0.0) -> float:
        """Empty the pending pool and return the simulated time to pay.

        ``concurrent`` is the network transit time the caller pays at
        the same drain point: serialized engines return the full pool,
        overlap-capable engines only the excess beyond ``concurrent``.
        """
        return 0.0


class DelegatingBackend(CacheBackend):
    """A wrapper engine: every answer comes from the engine it wraps.

    Forwards the **whole** protocol — core, batched forms, metadata,
    deep views, cost pool — so a subclass overrides only what it
    changes and inherits the rest, GDPR deep views included.
    """

    def __init__(self, inner: CacheBackend) -> None:
        self.inner = inner

    def get(self, key: str) -> Optional[Any]:
        return self.inner.get(key)

    def put(self, key: str, value: Any, size: int = 0) -> None:
        self.inner.put(key, value, size)

    def remove(self, key: str) -> Optional[Any]:
        return self.inner.remove(key)

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        return self.inner.scan(prefix)

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def bytes_used(self) -> int:
        return self.inner.bytes_used

    def clear(self) -> None:
        self.inner.clear()

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        return self.inner.get_many(keys)

    def put_many(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        self.inner.put_many(items)

    def remove_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        return self.inner.remove_many(keys)

    def peek(self, key: str) -> Optional[Any]:
        return self.inner.peek(key)

    def keys(self) -> List[str]:
        return self.inner.keys()

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def erase_matching(self, predicate: Predicate) -> Dict[str, Any]:
        return self.inner.erase_matching(predicate)

    def scrub_pending(self, predicate: Predicate) -> int:
        return self.inner.scrub_pending(predicate)

    def residuals_matching(self, predicate: Predicate) -> List[str]:
        return self.inner.residuals_matching(predicate)

    def queued_matching(self, predicate: Predicate) -> List[str]:
        return self.inner.queued_matching(predicate)

    def sync(self) -> float:
        return self.inner.sync()

    def pending_latency(self) -> float:
        return self.inner.pending_latency()

    def drain_latency(self, concurrent: float = 0.0) -> float:
        return self.inner.drain_latency(concurrent)


class InMemoryBackend(CacheBackend):
    """The classic engine: one insertion-ordered in-process map."""

    kind = "inmemory"

    def __init__(self) -> None:
        self._slots: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Optional[Any]:
        slot = self._slots.get(key)
        return slot[0] if slot is not None else None

    def put(self, key: str, value: Any, size: int = 0) -> None:
        old = self._slots.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._slots[key] = (value, size)
        self._bytes += size

    def remove(self, key: str) -> Optional[Any]:
        slot = self._slots.pop(key, None)
        if slot is None:
            return None
        self._bytes -= slot[1]
        return slot[0]

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        for key, (value, _) in list(self._slots.items()):
            if key.startswith(prefix):
                yield key, value

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._slots.clear()
        self._bytes = 0
