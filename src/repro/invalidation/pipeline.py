"""The invalidation pipeline: write → detect → sketch + purge.

On every document change the pipeline:

1. receives the affected resources from the origin, which derived them
   once — document dependents plus InvaliDB-matched query resources —
   and bumped their versions (``OriginServer.change_observers``);
2. expands them to all cached *variants* (segment-personalized URLs);
3. after ``detection_latency``, reports the write to the server Cache
   Sketch and the adaptive TTL estimator;
4. after ``purge_latency`` (total, from the write), purges the
   variants from every CDN PoP.

All latencies are measured and exposed for experiment E5.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.cdn.network import Cdn
from repro.http.freshness import freshness_lifetime
from repro.http.messages import Response
from repro.obs.tracer import NOOP_TRACER
from repro.origin.server import OriginServer
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry
from repro.sketch.cache_sketch import ServerCacheSketch


class VariantIndex:
    """Maps a version key to every cached variant cache key.

    Segment personalization means one logical resource materializes
    under several URLs (one per segment). The index learns variants as
    the origin serves them, so an invalidation can purge all of them.
    """

    def __init__(self) -> None:
        self._variants: Dict[str, Set[str]] = {}

    def register(self, version_key: str, cache_key: str) -> None:
        self._variants.setdefault(version_key, set()).add(cache_key)

    def variants_of(self, version_key: str) -> Set[str]:
        # The version key itself is always a purgeable key: the base
        # (segment-free) URL may be cached too.
        found = set(self._variants.get(version_key, ()))
        found.add(version_key)
        return found


class InvalidationPipeline:
    """Turns the origin's affected set per change into sketch + purge."""

    def __init__(
        self,
        env: Environment,
        server: OriginServer,
        cdn: Optional[Cdn] = None,
        sketch: Optional[ServerCacheSketch] = None,
        detection_latency: float = 0.025,
        purge_latency: float = 0.080,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
        overload=None,
    ) -> None:
        if purge_latency < detection_latency:
            raise ValueError(
                "purge completes after detection: purge_latency "
                f"{purge_latency} < detection_latency {detection_latency}"
            )
        self.env = env
        # The leaf of the server this pipeline reads, not the server:
        # the server holds ``_on_served`` and ``_on_change`` below, and
        # a reference back would close a cycle (DESIGN, *A finished
        # world is garbage by refcount*).
        self.ttl_policy = server.ttl_policy
        self.cdn = cdn
        self.sketch = sketch
        self.detection_latency = detection_latency
        self.purge_latency = purge_latency
        self.metrics = metrics or MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Optional :class:`~repro.overload.ControlPlane`: purges ride
        #: its control lane — accounted, never queued, never shed.
        self.overload = overload
        self.variants = VariantIndex()
        server.change_observers.append(self._on_change)
        server.serve_observers.append(self._on_served)

    # -- origin hooks ---------------------------------------------------------

    def _on_served(
        self, version_key: str, cache_key: str, response: Response, now: float
    ) -> None:
        """Learn about a handed-out copy: variants and sketch reads."""
        self.variants.register(version_key, cache_key)
        if self.sketch is not None:
            lifetime = max(
                freshness_lifetime(response, shared=True),
                freshness_lifetime(response, shared=False),
            )
            if lifetime > 0:
                self.sketch.report_read(
                    cache_key, expires_at=now + lifetime, now=now
                )

    def _on_change(self, resource_keys: FrozenSet[str], at: float) -> None:
        """Kick off asynchronous processing of one change's affected
        set (empty when the change affects no resource)."""
        if not resource_keys:
            self.metrics.counter("invalidation.no_op_changes").inc()
            return
        self.env.process(self._process(resource_keys, at))

    # -- asynchronous processing -----------------------------------------------

    def _process(self, resource_keys: FrozenSet[str], write_at: float):
        """Simulated pipeline execution for one change."""
        span = self.tracer.start(
            "invalidation",
            self.env.now,
            node="origin",
            tier="invalidation",
            resources=sorted(resource_keys),
            write_at=write_at,
        )
        yield self.env.timeout(self.detection_latency)
        cache_keys = self._expand(resource_keys)
        span.event("sketch-report", at=self.env.now, n_keys=len(cache_keys))
        self.metrics.histogram("invalidation.sketch_latency").observe(
            self.env.now - write_at
        )
        if self.sketch is not None:
            for cache_key in sorted(cache_keys):
                self.sketch.report_write(cache_key, now=self.env.now)
            self.metrics.series("invalidation.stale_keys").record(
                self.env.now, self.sketch.stale_key_count(self.env.now)
            )
        ttl_policy = self.ttl_policy
        for resource_key in sorted(resource_keys):
            ttl_policy.observe_resource_write(resource_key, self.env.now)

        yield self.env.timeout(self.purge_latency - self.detection_latency)
        purge_span = self.tracer.start(
            "purge",
            self.env.now,
            parent=span,
            tier="invalidation",
            n_keys=len(cache_keys),
            keys=sorted(cache_keys)[:32],
        )
        if self.overload is not None:
            self.overload.control_ticket("invalidation", len(cache_keys))
        if self.cdn is not None:
            # Async PoP replication races the purge: replicas of the
            # purged keys still travelling between PoPs would re-apply
            # a superseded copy. The purge supersedes them (the CDN
            # reports the purge instant to the replicator, which drops
            # every replica sent before it); their count is recorded
            # because each one widens the effective staleness window by
            # up to one propagation delay — the term the runner adds to
            # the Δ bound when replication is on.
            replicator = self.cdn.replicator
            if replicator is not None:
                superseded = replicator.in_flight_for(cache_keys)
                if superseded:
                    self.metrics.counter(
                        "invalidation.replicas_superseded"
                    ).inc(superseded)
                    purge_span.set(replicas_superseded=superseded)
                self.metrics.histogram(
                    "invalidation.in_flight_replicas"
                ).observe(float(superseded))
            # One batched purge per PoP: a pipelined storage engine
            # charges ~one round trip for the whole variant fan-out
            # instead of one per key.
            self.cdn.purge_many(sorted(cache_keys), span=purge_span)
            # PoPs purge in parallel; a remote storage engine charges
            # per-deletion cost, so the slowest PoP bounds completion.
            lag = max(
                (
                    pop.store.drain_latency()
                    for pop in self.cdn.pops.values()
                ),
                default=0.0,
            )
            if lag > 0:
                yield self.env.timeout(lag)
        self.tracer.finish(purge_span, self.env.now)
        purge_latency = self.env.now - write_at
        self.metrics.histogram("invalidation.purge_latency").observe(
            purge_latency
        )
        self.metrics.counter("invalidation.processed").inc()
        span.set(purge_latency=purge_latency)
        self.tracer.finish(span, self.env.now)

    def _expand(self, resource_keys: Iterable[str]) -> Set[str]:
        cache_keys: Set[str] = set()
        for resource_key in resource_keys:
            cache_keys |= self.variants.variants_of(resource_key)
        return cache_keys
