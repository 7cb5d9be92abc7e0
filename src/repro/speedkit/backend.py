"""Server-side Speed Kit deployment: origin + sketch + pipeline + CDN."""

from __future__ import annotations

from typing import List, Optional

from repro.cdn.network import DEFAULT_POP, Cdn
from repro.invalidation.pipeline import InvalidationPipeline
from repro.origin.server import OriginServer, TtlPolicy
from repro.origin.site import Site
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry
from repro.sketch.cache_sketch import ServerCacheSketch
from repro.storage import BackendSpec


class SpeedKitBackend:
    """Everything that runs outside the user's device.

    Bundles the origin server, the server-side Cache Sketch, the
    invalidation pipeline, and the CDN, wired together: origin serves
    feed the sketch's read reports, store writes flow through the
    pipeline into sketch additions and CDN purges.
    """

    def __init__(
        self,
        env: Environment,
        site: Site,
        ttl_policy: Optional[TtlPolicy] = None,
        pop_names: Optional[List[str]] = None,
        detection_latency: float = 0.025,
        purge_latency: float = 0.080,
        metrics: Optional[MetricRegistry] = None,
        backend_spec: Optional[BackendSpec] = None,
    ) -> None:
        self.env = env
        self.metrics = metrics or MetricRegistry()
        self.backend_spec = backend_spec
        self.server = OriginServer(site, ttl_policy=ttl_policy)
        self.sketch = ServerCacheSketch()
        self.cdn = Cdn(
            pop_names or [DEFAULT_POP],
            metrics=self.metrics,
            backend_spec=backend_spec,
        )
        self.pipeline = InvalidationPipeline(
            env,
            self.server,
            cdn=self.cdn,
            sketch=self.sketch,
            detection_latency=detection_latency,
            purge_latency=purge_latency,
            metrics=self.metrics,
        )

    @property
    def site(self) -> Site:
        return self.server.site
