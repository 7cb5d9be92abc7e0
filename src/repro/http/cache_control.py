"""``Cache-Control`` directive parsing and serialization.

Covers the directives the Speed Kit protocol depends on:

* ``max-age`` / ``s-maxage`` — freshness lifetimes (shared caches
  prefer ``s-maxage``);
* ``no-store`` / ``no-cache`` — caching and reuse prohibitions;
* ``private`` / ``public`` — shared-cache eligibility;
* ``must-revalidate`` — no serving stale;
* ``stale-while-revalidate`` — the Speed Kit service worker serves the
  cached copy while refreshing in the background.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

#: Memoized parses keyed by raw header value. Bounded so adversarial
#: header diversity cannot grow it without limit; real runs see a few
#: dozen distinct values.
_PARSE_CACHE: Dict[Optional[str], "CacheControl"] = {}
_PARSE_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class CacheControl:
    """Parsed ``Cache-Control`` directives: a value, never edited.

    Parses are shared through the memo below and a policy's answers
    through the origin's prebuilt responses, so an instance is frozen
    (an edit raises ``FrozenInstanceError``) and :attr:`extensions` is a
    tuple; a different set of directives is a new instance.
    """

    max_age: Optional[float] = None
    s_maxage: Optional[float] = None
    no_store: bool = False
    no_cache: bool = False
    private: bool = False
    public: bool = False
    must_revalidate: bool = False
    immutable: bool = False
    stale_while_revalidate: Optional[float] = None
    #: Unknown directives as ``(name, value)`` pairs, in header order;
    #: a flag directive's value is ``None``.
    extensions: Tuple[Tuple[str, Optional[str]], ...] = ()

    _VALUE_DIRECTIVES = {
        "max-age": "max_age",
        "s-maxage": "s_maxage",
        "stale-while-revalidate": "stale_while_revalidate",
    }
    _FLAG_DIRECTIVES = {
        "no-store": "no_store",
        "no-cache": "no_cache",
        "private": "private",
        "public": "public",
        "must-revalidate": "must_revalidate",
        "immutable": "immutable",
    }

    @classmethod
    def parse(cls, header_value: Optional[str]) -> "CacheControl":
        """Parse a header value like ``"public, max-age=60"``.

        Unknown directives are preserved in :attr:`extensions`. Invalid
        numeric values make the directive behave as most-conservative
        (treated as 0), per RFC 7234 §4.2.1 guidance.

        Parses are memoized by the raw header string: the simulator
        re-parses the same handful of values millions of times on the
        hot path, and every holder shares the one frozen instance.
        """
        cached = _PARSE_CACHE.get(header_value)
        if cached is not None:
            return cached
        cc = cls._parse_uncached(header_value)
        if len(_PARSE_CACHE) < _PARSE_CACHE_LIMIT:
            _PARSE_CACHE[header_value] = cc
        return cc

    @classmethod
    def _parse_uncached(cls, header_value: Optional[str]) -> "CacheControl":
        if not header_value:
            return cls()
        directives: Dict[str, Any] = {}
        extensions: Dict[str, Optional[str]] = {}
        for raw in header_value.split(","):
            token = raw.strip()
            if not token:
                continue
            name, _, value = token.partition("=")
            name = name.strip().lower()
            value = value.strip().strip('"')
            if name in cls._VALUE_DIRECTIVES:
                try:
                    seconds = float(value)
                    if seconds < 0:
                        seconds = 0.0
                except ValueError:
                    seconds = 0.0
                directives[cls._VALUE_DIRECTIVES[name]] = seconds
            elif name in cls._FLAG_DIRECTIVES:
                directives[cls._FLAG_DIRECTIVES[name]] = True
            else:
                extensions[name] = value if value else None
        return cls(**directives, extensions=tuple(extensions.items()))

    def serialize(self) -> str:
        """Render back to a header value (canonical ordering)."""
        return self._rendered

    @cached_property
    def _rendered(self) -> str:
        # Once per instance: a value renders the same every time.
        parts = []
        for header_name, attr in self._FLAG_DIRECTIVES.items():
            if getattr(self, attr):
                parts.append(header_name)
        for header_name, attr in self._VALUE_DIRECTIVES.items():
            value = getattr(self, attr)
            if value is not None:
                rendered = int(value) if float(value).is_integer() else value
                parts.append(f"{header_name}={rendered}")
        for name, value in self.extensions:
            parts.append(name if value is None else f"{name}={value}")
        return ", ".join(parts)

    def shared_lifetime(self) -> Optional[float]:
        """Freshness lifetime for a *shared* cache (CDN edge)."""
        if self.s_maxage is not None:
            return self.s_maxage
        return self.max_age

    def private_lifetime(self) -> Optional[float]:
        """Freshness lifetime for a *private* cache (browser / SW)."""
        return self.max_age

    def forbids_storing(self, shared: bool) -> bool:
        """Whether a cache of the given kind may store the response."""
        if self.no_store:
            return True
        return shared and self.private

    def forbids_serving_without_revalidation(self) -> bool:
        """``no-cache``: stored copies need revalidation before reuse."""
        return self.no_cache
