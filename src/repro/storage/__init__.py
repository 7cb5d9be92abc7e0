"""Pluggable storage engines: the polyglot backend layer.

The paper's title claim is a *polyglot* caching architecture — Orestes
fronts MongoDB/Redis behind one uniform caching interface. This
package makes backend choice a real, swappable axis of the
reproduction: every cache tier (CDN edge PoPs, the browser HTTP cache,
the service worker cache) and the origin document store hold their
entries in a :class:`CacheBackend` engine chosen by configuration.

Engines implement pure keyed storage (``get/put/remove/scan/len/
bytes``) and never drop an entry on their own; all HTTP freshness and
eviction *policy* stays in :class:`repro.cdn.cache.CacheStore`, the
policy layer above the protocol. The protocol is closed and stated once in
:mod:`repro.storage.backend`; wrapper engines derive from
:class:`DelegatingBackend` and override only what they change.
Shipped engines:

* :class:`InMemoryBackend` — the classic single ``OrderedDict`` map;
* :class:`ShardedBackend` — N hash-partitioned sub-engines
  (concurrent-map semantics);
* :class:`SimulatedRemoteBackend` — a Redis-like remote KV store whose
  per-operation latency is drawn from a ``simnet``-style distribution,
  so backend cost shows up in PLT and invalidation latency;
* :class:`BatchedRemoteBackend` — the pipelined variant: multi-key
  operations (``get_many``/``put_many``/``remove_many``) and coalesced
  single-key calls are charged one round trip per flushed batch plus a
  per-key marginal cost, and with ``overlap`` enabled the accrued
  latency hides under concurrent network transit at the drain points;
* :class:`WriteBehindBackend` — write-behind over the batched engine:
  mutations acknowledge immediately from a local buffer, queue into
  flush epochs, and a background flusher drains them to the wrapped
  engine off the caller's critical path. A read-your-writes overlay
  keeps local readers exact; ``sync()`` is the durability barrier.

:class:`BackendSpec` is the serializable selection record threaded
through ``SpeedKitConfig``, ``ScenarioSpec``, and the CLI
(``--backend inmemory|sharded|remote|batched|write-behind``).
"""

from repro.storage.backend import (
    CacheBackend,
    DelegatingBackend,
    InMemoryBackend,
)
from repro.storage.batched import BatchedRemoteBackend
from repro.storage.factory import BACKEND_KINDS, BackendSpec
from repro.storage.remote import SimulatedRemoteBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.writebehind import WriteBehindBackend

__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "BatchedRemoteBackend",
    "CacheBackend",
    "DelegatingBackend",
    "InMemoryBackend",
    "ShardedBackend",
    "SimulatedRemoteBackend",
    "WriteBehindBackend",
]
