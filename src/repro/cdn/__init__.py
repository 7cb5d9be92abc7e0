"""Expiration-based caching infrastructure: CDN edges and cache stores.

:class:`CacheStore` is the generic TTL/LRU cache every layer reuses
(CDN edges, the browser cache, the service worker cache).
:class:`EdgeCache` wraps it with shared-cache HTTP semantics —
admission, freshness, 304-refresh, purge. :class:`Cdn` groups edge PoPs
and fans purges out to all of them. :class:`PopReplicator`
asynchronously copies admitted entries to sibling PoPs after a
propagation delay, cancelling in-flight replicas that a purge
supersedes.
"""

from repro.cdn.cache import CacheEntry, CacheStore
from repro.cdn.edge import EdgeCache
from repro.cdn.httpcache import HttpCache
from repro.cdn.network import Cdn
from repro.cdn.replication import PopReplicator

__all__ = [
    "CacheEntry",
    "CacheStore",
    "Cdn",
    "EdgeCache",
    "HttpCache",
    "PopReplicator",
]
