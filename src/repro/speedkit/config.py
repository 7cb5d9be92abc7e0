"""Speed Kit configuration: routing rules and protocol knobs.

Mirrors the production Speed Kit configuration in spirit: site owners
whitelist URL patterns to accelerate, blacklist exceptions, and mark
which paths are segment-personalized (cacheable per user segment) or
user-personalized (never shared; fetched directly with credentials).
"""

from __future__ import annotations

import fnmatch
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

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


#: Distinct ``(path, pattern lists)`` whose route stays resolved.
_ROUTE_MEMO_SIZE = 4096


@lru_cache(maxsize=_ROUTE_MEMO_SIZE)
def _route(
    path: str,
    user_personalized: Tuple[str, ...],
    blacklist: Tuple[str, ...],
    whitelist: Tuple[str, ...],
    segment_personalized: Tuple[str, ...],
) -> Route:
    """The routing decision for ``path`` — matched once, then looked up.

    Keyed on the pattern *contents*: every worker of a site shares the
    entry, and a list edited after first use is simply another key.
    """
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
class SpeedKitConfig:
    """All knobs of one Speed Kit installation."""

    #: Routing: what goes through the caching infrastructure.
    rules: RoutingRules = field(default_factory=RoutingRules)
    #: Sketch refresh interval — the protocol's Δ contribution.
    sketch_refresh_interval: float = 60.0
    #: Paths whose content varies per user segment; the worker requests
    #: the segment variant for these (glob patterns).
    segment_personalized: List[str] = field(default_factory=list)
    #: Paths whose content is per-user; always fetched directly with
    #: credentials, never through shared caches (glob patterns).
    user_personalized: List[str] = field(default_factory=list)
    #: Service worker cache bounds.
    sw_cache_max_entries: Optional[int] = None
    sw_cache_max_bytes: Optional[int] = 50_000_000
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
    swr_staleness_budget: float = 120.0
    #: Stale-if-error: when an upstream fetch fails (5xx), serve the
    #: cached copy if it was verified current within this many seconds —
    #: a *bounded* degradation (the grace widens the checked Δ bound by
    #: exactly this window), unlike ``offline_mode`` which is unbounded.
    #: ``None`` disables it.
    stale_if_error_window: Optional[float] = None

    def __post_init__(self) -> None:
        # Chained comparisons, so NaN fails them too (``nan < 0`` and
        # ``nan <= 0`` are both false): the same test, and the same
        # reason, as ``ScenarioSpec``'s durations.
        if not 0 < self.sketch_refresh_interval < math.inf:
            raise ValueError(
                "sketch_refresh_interval must be finite and positive: "
                f"{self.sketch_refresh_interval}"
            )
        for knob in ("swr_staleness_budget", "stale_if_error_window"):
            value = getattr(self, knob)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(
                    f"{knob} must be finite and non-negative: {value}"
                )

    def route(self, path: str) -> Route:
        """The resolved :class:`Route` of ``path`` under the current
        pattern lists (the worker additionally requires a safe method
        before accelerating)."""
        rules = self.rules
        return _route(
            path,
            tuple(self.user_personalized),
            tuple(rules.blacklist),
            tuple(rules.whitelist),
            tuple(self.segment_personalized),
        )

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
