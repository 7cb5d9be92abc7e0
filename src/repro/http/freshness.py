"""RFC 7234-style freshness computation.

These functions answer the two questions every cache in the stack asks:

* *May I store this response?* — :func:`is_cacheable`
* *May I serve my stored copy without contacting upstream?* —
  :func:`is_fresh_at`

All times are simulated seconds. ``Age`` is derived from the response's
``generated_at`` timestamp rather than an Age header, because the
simulator shares one global clock.
"""

from __future__ import annotations

from repro.http.cache_control import CacheControl
from repro.http.messages import Request, Response, Status


def is_cacheable(response: Response, shared: bool) -> bool:
    """Whether a cache of the given kind may store ``response``.

    ``shared=True`` models CDN edges; ``shared=False`` models the
    browser cache and the service worker cache.
    """
    if response.status not in (Status.OK, Status.NOT_MODIFIED):
        return False
    cc = response.cache_control
    if cc.forbids_storing(shared):
        return False
    lifetime = cc.shared_lifetime() if shared else cc.private_lifetime()
    # Without an explicit lifetime nothing is heuristically cached in
    # this model: the Speed Kit protocol always assigns explicit TTLs.
    return lifetime is not None and lifetime > 0


def _lifetime(cc: CacheControl, shared: bool) -> float:
    lifetime = cc.shared_lifetime() if shared else cc.private_lifetime()
    return float(lifetime) if lifetime is not None else 0.0


def freshness_lifetime(response: Response, shared: bool) -> float:
    """Seconds the response stays fresh in a cache of the given kind."""
    return _lifetime(response.cache_control, shared)


def age_at(response: Response, now: float) -> float:
    """Seconds elapsed since the response was generated."""
    return max(0.0, now - response.generated_at)


def is_fresh_at(response: Response, now: float, shared: bool) -> bool:
    """Whether the stored response is still fresh at time ``now``."""
    cc = response.cache_control
    if cc.forbids_serving_without_revalidation():
        return False
    if cc.immutable:
        return True
    return age_at(response, now) < _lifetime(cc, shared)


def conditional_request_for(request: Request, stored: Response) -> Request:
    """Turn ``request`` into a conditional revalidation of ``stored``."""
    if stored.etag is None:
        return request.copy()
    return request.with_header("If-None-Match", stored.etag)
