"""One CDN edge PoP with shared-cache HTTP semantics."""

from __future__ import annotations

from typing import Optional

from repro.cdn.httpcache import HttpCache
from repro.http.messages import Request
from repro.sim.metrics import MetricRegistry


class EdgeCache(HttpCache):
    """A shared cache in front of the origin.

    All protocol behaviour lives in :class:`HttpCache`; the edge pins
    down shared-cache semantics (``s-maxage``, no ``private`` storage)
    by insisting on a shared-mode store, and adds the standard
    credentialed-request *pass* rule: requests carrying a ``Cookie`` or
    ``Authorization`` header bypass the cache entirely (the
    Varnish/Fastly default), because a cached anonymous variant must
    never be served to an identified user. This is precisely why
    classic CDNs cannot accelerate personalized content — and why the
    Speed Kit worker strips those headers before its requests reach the
    edge.
    """

    METRIC_SCOPE = "edge"

    def __init__(
        self,
        name: str,
        store,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        if not store.shared:
            raise ValueError("an edge PoP must use a shared-mode store")
        super().__init__(name, store, metrics=metrics)

    def should_pass(self, request: Request) -> bool:
        """Whether the request must bypass the cache entirely."""
        return request.credentialed
