"""Structured URL type used throughout the caching stack.

Cache keys are derived from URLs, so equality, hashing, and query
normalization (sorted parameters) live here. Only the parts relevant to
caching are modeled: scheme/host are collapsed into an ``origin`` label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple


@dataclass(frozen=True)
class URL:
    """An absolute URL within one simulated site.

    ``cache_key`` is its canonical text, the key every cache tier
    stores it under (also ``str(url)``).
    """

    path: str
    query: Tuple[Tuple[str, str], ...] = ()
    origin: str = "shop.example"

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/': {self.path!r}")
        # Normalize query parameter order so logically equal URLs
        # produce equal cache keys.
        object.__setattr__(self, "query", tuple(sorted(self.query)))
        # The canonical text is every tier's cache key: built once per
        # (frozen) instance. Not a dataclass field, so it stays out of
        # ``__eq__``, ``__hash__`` and ``repr``.
        text = f"{self.origin}{self.path}"
        if self.query:
            text += "?" + "&".join(f"{k}={v}" for k, v in self.query)
        object.__setattr__(self, "cache_key", text)

    @classmethod
    def of(
        cls,
        path: str,
        params: Optional[Mapping[str, object]] = None,
        origin: str = "shop.example",
    ) -> "URL":
        """Convenience constructor from a path and a params mapping."""
        query: Tuple[Tuple[str, str], ...] = ()
        if params:
            query = tuple((str(k), str(v)) for k, v in params.items())
        return cls(path=path, query=query, origin=origin)

    @classmethod
    def parse(cls, text: str, origin: str = "shop.example") -> "URL":
        """Parse ``"/path?a=1&b=2"`` (no scheme/host component)."""
        path, _, query_text = text.partition("?")
        params: Dict[str, str] = {}
        if query_text:
            for pair in query_text.split("&"):
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                params[key] = value
        return cls.of(path, params, origin=origin)

    @property
    def params(self) -> Dict[str, str]:
        return dict(self.query)

    def with_param(self, key: str, value: object) -> "URL":
        """A copy with one query parameter added/replaced."""
        params = self.params
        params[str(key)] = str(value)
        return URL.of(self.path, params, origin=self.origin)

    def without_param(self, key: str) -> "URL":
        """A copy with one query parameter removed (if present)."""
        params = self.params
        params.pop(key, None)
        return URL.of(self.path, params, origin=self.origin)

    def __str__(self) -> str:
        return self.cache_key
