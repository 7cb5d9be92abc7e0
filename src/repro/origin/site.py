"""Declarative site description: which URLs exist and what they depend on.

A :class:`Site` maps URL patterns to :class:`ResourceSpec` route specs.
Each spec declares the resource's kind (static asset, rendered page,
API document, query listing, personalized fragment), its degree of
personalization, its payload size, and how to resolve the documents or
query it is rendered from. The origin server uses this to render
responses and to know which URLs a document write affects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.http.url import URL
from repro.origin.query import Query
from repro.origin.store import DocumentStore


class ResourceKind(enum.Enum):
    """What kind of content a URL serves."""

    STATIC = "static"  # immutable assets: JS, CSS, images
    PAGE = "page"  # rendered HTML pages
    API = "api"  # single-document JSON
    QUERY = "query"  # query-result listings (JSON or HTML)
    FRAGMENT = "fragment"  # personalized dynamic blocks


class PersonalizationKind(enum.Enum):
    """How strongly a resource's content depends on who is asking."""

    NONE = "none"  # identical for everyone
    SEGMENT = "segment"  # varies by user segment (cacheable per segment)
    USER = "user"  # varies per individual user (never shared)


PathParams = Dict[str, str]
DocKeysResolver = Callable[[PathParams], List[str]]
QueryBuilder = Callable[[PathParams], Query]


@dataclass
class ResourceSpec:
    """One route of the site."""

    name: str
    pattern: str  # e.g. "/product/{id}"
    kind: ResourceKind
    personalization: PersonalizationKind = PersonalizationKind.NONE
    size_bytes: int = 10_000
    # Documents the resource is rendered from, as a function of the
    # captured path parameters. Example: lambda p: [f"products/{p['id']}"].
    doc_keys: Optional[DocKeysResolver] = None
    # For QUERY resources: the query whose result the URL serves.
    query: Optional[QueryBuilder] = None
    # Optional explicit TTL hint the origin attaches (seconds). When
    # None the server's TTL policy decides.
    ttl_hint: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.pattern.startswith("/"):
            raise ValueError(f"pattern must start with '/': {self.pattern!r}")
        self._segments = self.pattern.strip("/").split("/")
        if self.kind is ResourceKind.QUERY and self.query is None:
            raise ValueError(f"QUERY resource {self.name!r} needs a query")

    def match(self, path: str) -> Optional[PathParams]:
        """Match a concrete path; returns captured params or ``None``."""
        parts = path.strip("/").split("/")
        if len(parts) != len(self._segments):
            return None
        params: PathParams = {}
        for segment, part in zip(self._segments, parts):
            if segment.startswith("{") and segment.endswith("}"):
                params[segment[1:-1]] = part
            elif segment != part:
                return None
        return params

    def resolve_doc_keys(self, params: PathParams) -> List[str]:
        if self.doc_keys is None:
            return []
        return self.doc_keys(params)

    def resolve_query(self, params: PathParams) -> Optional[Query]:
        if self.query is None:
            return None
        return self.query(params)


@dataclass
class Site:
    """The whole site: a document store plus an ordered route table."""

    store: DocumentStore = field(default_factory=DocumentStore)
    routes: List[ResourceSpec] = field(default_factory=list)
    origin_name: str = "shop.example"
    # path -> match, resolved once per path; valid only for the route
    # list it was computed against (``routes`` is a public list).
    _matches: Dict[str, Optional[Tuple[ResourceSpec, PathParams]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _matched_routes: List[ResourceSpec] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def add_route(self, spec: ResourceSpec) -> ResourceSpec:
        """Append a route (first match wins; order your routes)."""
        self.routes.append(spec)
        return spec

    def match(self, url: URL) -> Optional[Tuple[ResourceSpec, PathParams]]:
        """Find the first route matching ``url``'s path."""
        if self._matched_routes != self.routes:
            self._matched_routes = list(self.routes)
            self._matches.clear()
        path = url.path
        try:
            matched = self._matches[path]
        except KeyError:
            matched = self._matches[path] = self._first_match(path)
        if matched is None:
            return None
        spec, params = matched
        return spec, dict(params)

    def _first_match(
        self, path: str
    ) -> Optional[Tuple[ResourceSpec, PathParams]]:
        for spec in self.routes:
            params = spec.match(path)
            if params is not None:
                return spec, params
        return None
