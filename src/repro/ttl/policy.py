"""Adaptive TTL policy: plugs the estimator into the origin server."""

from __future__ import annotations

from typing import Optional

from repro.http.cache_control import CacheControl
from repro.http.url import URL
from repro.origin.server import SEGMENT_PARAM
from repro.origin.site import ResourceKind, ResourceSpec
from repro.ttl.estimator import TtlEstimator


class AdaptiveTtlPolicy:
    """An origin :class:`~repro.origin.server.TtlPolicy` driven by the
    write-rate estimator.

    Static assets keep a fixed immutable year; everything else gets the
    estimator's per-key TTL. User-personalized responses stay
    uncacheable in shared caches, exactly as with the static policy.
    """

    STATIC_TTL = 365 * 24 * 3600.0

    def __init__(
        self,
        estimator: Optional[TtlEstimator] = None,
        stale_while_revalidate: Optional[float] = None,
    ) -> None:
        self.estimator = estimator or TtlEstimator()
        self.stale_while_revalidate = stale_while_revalidate

    def observe_resource_write(self, resource_key: str, now: float) -> None:
        """Feed a resource-level write (called by the invalidation
        pipeline, which knows which resources a document write touched)."""
        self.estimator.observe_write(resource_key, now)

    def cache_control(
        self, spec: ResourceSpec, url: URL, personalized_for_user: bool
    ) -> CacheControl:
        if personalized_for_user:
            return CacheControl(no_store=True, private=True)
        if spec.kind is ResourceKind.STATIC:
            return CacheControl(
                public=True, max_age=self.STATIC_TTL, immutable=True
            )
        if spec.ttl_hint is not None:
            ttl = float(spec.ttl_hint)
        else:
            key = url.without_param(SEGMENT_PARAM).cache_key
            ttl = self.estimator.ttl_for(key)
        if ttl <= 0:
            return CacheControl(no_store=True)
        return CacheControl(
            public=True,
            max_age=ttl,
            stale_while_revalidate=self.stale_while_revalidate,
        )
