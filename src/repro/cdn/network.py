"""The CDN as a whole: a set of edge PoPs plus a fan-out purge API."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cdn.cache import CacheStore
from repro.cdn.edge import EdgeCache
from repro.sim.metrics import MetricRegistry
from repro.storage import BackendSpec

#: The one PoP of a deployment without regions. Served-by attribution,
#: the ``edge.edge-1.*`` counters and recorded span nodes carry it.
DEFAULT_POP = "edge-1"


class Cdn:
    """All edge PoPs of one deployment.

    Purges fan out to every PoP. The caller (invalidation pipeline)
    models purge propagation latency by scheduling the call; the method
    itself applies instantly, matching the instant-purge APIs the paper
    relies on (Fastly).

    ``backend_spec`` selects the storage engine every PoP stores its
    entries in (each PoP gets its own engine instance).

    An optional :class:`~repro.cdn.replication.PopReplicator` (see
    :meth:`attach_replicator`) asynchronously copies admitted entries
    to sibling PoPs; :meth:`purge_many` reports the purged keys to it
    so in-flight replicas sent before the purge never re-apply.
    """

    def __init__(
        self,
        pop_names: List[str],
        metrics: Optional[MetricRegistry] = None,
        backend_spec: Optional[BackendSpec] = None,
    ) -> None:
        if not pop_names:
            raise ValueError("a CDN needs at least one PoP")
        self.metrics = metrics or MetricRegistry()
        self.backend_spec = backend_spec
        self.replicator = None
        self.pops: Dict[str, EdgeCache] = {}
        for name in pop_names:
            store = CacheStore(
                shared=True,
                backend=(
                    backend_spec.build(salt=f"edge:{name}")
                    if backend_spec is not None
                    else None
                ),
            )
            self.pops[name] = EdgeCache(name, store, metrics=self.metrics)

    def pop(self, name: str) -> EdgeCache:
        try:
            return self.pops[name]
        except KeyError:
            raise KeyError(f"unknown PoP {name!r}") from None

    def attach_replicator(self, replicator) -> None:
        """Register the async PoP-to-PoP replicator for this CDN."""
        self.replicator = replicator

    def purge_many(self, keys: List[str], span=None) -> int:
        """Purge many cache keys from every PoP in one batched pass.

        Each PoP receives the whole key list as a single batched
        removal, so a pipelined storage engine pays ~one round trip per
        PoP for the entire fan-out instead of one per key. An empty key
        list is a no-op with zero round trips — no PoP store is touched
        and no purge request is counted. Returns the total number of
        (key, PoP) purges that hit a stored entry, and counts purge
        requests exactly as the per-key loop did.

        ``span`` is an optional observability span: when tracing, the
        per-PoP purge counts are attached so one trace shows a write
        reaching every copy.
        """
        if not keys:
            return 0
        self.metrics.counter("cdn.purge_requests").inc(len(keys))
        if self.replicator is not None:
            self.replicator.note_purged(keys)
        total = 0
        per_pop = {}
        for name, pop in self.pops.items():
            purged = pop.purge_many(keys)
            per_pop[name] = purged
            total += purged
        if span is not None:
            span.set(purged=total, per_pop=per_pop)
        return total
