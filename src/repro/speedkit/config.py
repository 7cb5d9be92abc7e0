"""Speed Kit configuration: routing rules and protocol knobs.

Mirrors the production Speed Kit configuration in spirit: site owners
whitelist URL patterns to accelerate, blacklist exceptions, and mark
which paths are segment-personalized (cacheable per user segment) or
user-personalized (never shared; fetched directly with credentials).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.knobs import NON_NEGATIVE, POSITIVE, integer, knob, knobs
from repro.storage import BackendSpec


@lru_cache(maxsize=256)
def _compile_globs(patterns: Tuple[str, ...]) -> "re.Pattern[str]":
    """One compiled alternation for a tuple of shell-style globs.

    Routing decisions run per request on the hot path; matching one
    precompiled regex beats calling :func:`fnmatch.fnmatch` per pattern
    (which re-resolves its cache and normcases the path every call).
    Semantics are identical to ``fnmatch.fnmatch`` on POSIX paths.
    """
    return re.compile(
        "|".join(f"(?:{fnmatch.translate(p)})" for p in patterns)
    )


def _matches_globs(path: str, patterns: Tuple[str, ...]) -> bool:
    if not patterns:
        return False
    return _compile_globs(patterns).match(path) is not None


class Route(NamedTuple):
    """What the pattern lists say about one URL path."""

    #: Per-user content: direct first-party fetch, never shared caches.
    user_block: bool
    #: Not blacklisted and (whitelisted, or the whitelist is empty).
    accelerate: bool
    #: Varies per user segment: the worker asks for the segment variant.
    segmented: bool


#: Distinct paths whose route a configuration keeps resolved.
_ROUTE_MEMO_SIZE = 4096


def _route(
    path: str,
    user_personalized: Tuple[str, ...],
    blacklist: Tuple[str, ...],
    whitelist: Tuple[str, ...],
    segment_personalized: Tuple[str, ...],
) -> Route:
    """The routing decision for ``path`` under the pattern lists."""
    return Route(
        user_block=_matches_globs(path, user_personalized),
        accelerate=not _matches_globs(path, blacklist)
        and (not whitelist or _matches_globs(path, whitelist)),
        segmented=_matches_globs(path, segment_personalized),
    )


@dataclass
class RoutingRules:
    """Which requests the service worker accelerates.

    Patterns are shell-style globs matched against the URL path
    (``fnmatch``). A request is accelerated iff its method is safe, its
    path matches a whitelist pattern, and matches no blacklist pattern.
    An empty whitelist means "accelerate everything not blacklisted".
    """

    whitelist: List[str] = field(default_factory=list)
    blacklist: List[str] = field(default_factory=list)


@dataclass
@knobs
class SpeedKitConfig:
    """All knobs of one Speed Kit installation."""

    #: Routing: what goes through the caching infrastructure.
    rules: RoutingRules = field(default_factory=RoutingRules)
    #: Sketch refresh interval — the protocol's Δ contribution.
    sketch_refresh_interval: float = knob(60.0, POSITIVE)
    #: Paths whose content varies per user segment; the worker requests
    #: the segment variant for these (glob patterns).
    segment_personalized: List[str] = field(default_factory=list)
    #: Paths whose content is per-user; always fetched directly with
    #: credentials, never through shared caches (glob patterns).
    user_personalized: List[str] = field(default_factory=list)
    #: Service worker cache bounds.
    sw_cache_max_entries: Optional[int] = knob(None, integer(1))
    sw_cache_max_bytes: Optional[int] = knob(50_000_000, integer(1))
    #: Storage engine the service worker cache stores entries in
    #: (the polyglot backend axis; see :mod:`repro.storage`).
    backend: BackendSpec = field(default_factory=BackendSpec)
    #: Refresh the sketch eagerly on navigation in addition to the
    #: periodic background refresh.
    refresh_on_navigation: bool = True
    #: Offline resilience: when the origin is unreachable (5xx), serve
    #: the cached copy even if it would normally be revalidated.
    offline_mode: bool = True
    #: Stale-while-revalidate: answer revalidation-flagged requests
    #: from cache immediately and refresh in the background — but only
    #: for copies verified current within ``swr_staleness_budget``
    #: seconds, which is therefore the staleness bound in this mode.
    stale_while_revalidate: bool = False
    swr_staleness_budget: float = knob(120.0, NON_NEGATIVE)
    #: Stale-if-error: when an upstream fetch fails (5xx), serve the
    #: cached copy if it was verified current within this many seconds —
    #: a *bounded* degradation (the grace widens the checked Δ bound by
    #: exactly this window), unlike ``offline_mode`` which is unbounded.
    #: ``None`` disables it.
    stale_if_error_window: Optional[float] = knob(None, NON_NEGATIVE)
    #: Each path's resolved :class:`Route` (one config serves every
    #: worker of a run), valid while the pattern lists equal
    #: ``_route_lists``, their contents when the memo was started.
    _routes: Dict[str, Route] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _route_lists: Tuple[List[str], ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def route(self, path: str) -> Route:
        """The resolved :class:`Route` of ``path`` under the current
        pattern lists (the worker additionally requires a safe method
        before accelerating).

        Resolved once per path and looked up after; the lists are
        compared, not copied, per call, so one edited in place (or
        replaced) since the memo was started starts it afresh.
        """
        rules = self.rules
        lists = (
            self.user_personalized,
            rules.blacklist,
            rules.whitelist,
            self.segment_personalized,
        )
        routes = self._routes
        if lists != self._route_lists:
            self._route_lists = tuple(list(patterns) for patterns in lists)
            routes = self._routes = {}
        route = routes.get(path)
        if route is None:
            if len(routes) >= _ROUTE_MEMO_SIZE:
                routes.clear()
            route = routes[path] = _route(
                path, *(tuple(patterns) for patterns in lists)
            )
        return route

    @classmethod
    def ecommerce_default(cls) -> "SpeedKitConfig":
        """The configuration the field deployments in the paper use."""
        return cls(
            rules=RoutingRules(
                whitelist=["/", "/static/*", "/product/*", "/category/*",
                           "/api/products/*", "/api/recommendations",
                           "/search"],
                blacklist=["/checkout*", "/account*", "/api/documents/*"],
            ),
            sketch_refresh_interval=60.0,
            segment_personalized=[
                "/product/*", "/category/*", "/", "/api/recommendations"
            ],
            user_personalized=["/api/blocks/*"],
        )
