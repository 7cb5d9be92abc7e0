"""Request and response messages with cache validators.

Messages are values (DESIGN, *Messages are values*). A ``Response`` is
never edited once built: what every tier asks of its headers is read
once, at construction, and a cache hands the stored response out by
reference (:meth:`Response.served`). A ``Request`` shares its header map
with its copies; ``trace`` is the one field a hop rebinds. Variants are
built — ``dataclasses.replace``, ``with_header`` — never edited in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.http.cache_control import CacheControl
from repro.http.degraded import Degraded, reason_in
from repro.http.headers import Headers
from repro.http.url import URL


class Method(str, enum.Enum):
    """HTTP methods the simulator uses."""

    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"

    @property
    def is_safe(self) -> bool:
        """Safe methods are cacheable; unsafe methods invalidate."""
        return self is Method.GET


class Status(enum.IntEnum):
    """HTTP status codes the simulator uses."""

    OK = 200
    NOT_MODIFIED = 304
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    INTERNAL_ERROR = 500
    SERVICE_UNAVAILABLE = 503

    @property
    def is_server_error(self) -> bool:
        return 500 <= int(self) < 600


#: Request headers that identify a user. A request carrying one is
#: personalized traffic: shared caches pass it to the origin
#: untouched, and the admission plane sheds it first.
CREDENTIAL_HEADERS = ("Cookie", "Authorization")


@dataclass(slots=True)
class Request:
    """An HTTP request.

    ``client_id`` identifies the issuing simulated browser; it is
    metadata for the simulator (used by the GDPR layer to check what
    actually left the device), not an HTTP header.  ``trace`` carries
    the observability span context (:class:`repro.obs.span.SpanContext`)
    of the hop currently handling the request, so downstream tiers can
    parent their spans without global state; it is ``None`` whenever
    tracing is disabled — and it is the one field a hop rebinds: the
    header map is a value, so any number of requests (a page load's
    resources, a hop's copy) carry one map.
    """

    method: Method
    url: URL
    headers: Headers = field(default_factory=Headers)
    body: Any = None
    client_id: Optional[str] = None
    trace: Any = None

    @classmethod
    def get(cls, url: URL, **kwargs: Any) -> "Request":
        return cls(Method.GET, url, **kwargs)

    @property
    def if_none_match(self) -> Optional[str]:
        return self.headers.get("If-None-Match")

    @property
    def credentialed(self) -> bool:
        """Whether the request carries a :data:`CREDENTIAL_HEADERS`."""
        return any(header in self.headers for header in CREDENTIAL_HEADERS)

    def with_header(self, name: str, value: str) -> "Request":
        """This request with one header added/replaced (a new map)."""
        return self.with_headers(self.headers.with_item(name, value))

    def copy(self) -> "Request":
        """Another request carrying the same map, with a ``trace`` of
        its own to rebind."""
        return self.with_headers(self.headers)

    def with_headers(self, headers: Headers) -> "Request":
        """This request carrying ``headers`` instead."""
        return Request(
            self.method,
            self.url,
            headers,
            self.body,
            self.client_id,
            self.trace,
        )

    def __repr__(self) -> str:
        return f"Request({self.method.value} {self.url})"


def _parsed_length(value: str) -> Optional[int]:
    try:
        return max(0, int(value))
    except ValueError:
        return None


@dataclass(slots=True)
class Response:
    """An HTTP response: a value, never edited once built.

    ``version`` and ``served_by`` are simulator metadata: ``version`` is
    the origin-side version number of the underlying resource (used by
    the Δ-atomicity checker), and ``served_by`` records which component
    produced the response (origin, an edge PoP, the browser cache, the
    service worker, ...).

    A cache stores the response it is given and answers with
    :meth:`served` — a new shell around the same header map, body and
    facts. A *different* response is built, not edited:
    ``dataclasses.replace(response, ...)`` (how
    :func:`~repro.http.degraded.mark` adds its header), which reads the
    facts again from the map it is given.
    """

    status: Status
    headers: Headers = field(default_factory=Headers)
    body: Any = None
    url: Optional[URL] = None
    version: Optional[int] = None
    served_by: str = "origin"
    # Simulated wall-clock time the response was generated at the
    # serving node; caches use it to compute Age.
    generated_at: float = 0.0
    # What the tiers ask of the header map, read off it once in
    # ``__post_init__``. Not ``__init__`` parameters — which is what
    # keeps them (like a stored shape's identity-text memo) out of the
    # GDPR walk: they restate the map, they are not more user data.
    cache_control: CacheControl = field(init=False, repr=False, compare=False)
    etag: Optional[str] = field(init=False, repr=False, compare=False)
    #: ``Content-Length`` as a byte count; ``None`` when the header is
    #: absent or not an integer (each reader has its own fallback).
    content_length: Optional[int] = field(init=False, repr=False, compare=False)
    #: ``X-Resource-Kind`` and ``X-Version-Key`` as the origin set them.
    kind: Optional[str] = field(init=False, repr=False, compare=False)
    version_key: Optional[str] = field(init=False, repr=False, compare=False)
    #: Why this is not a verified-fresh read (``reason_of`` returns it).
    degraded: Optional[Degraded] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        items = self.headers._items
        self.cache_control = CacheControl.parse(
            items["cache-control"][1] if "cache-control" in items else None
        )
        self.etag = items["etag"][1] if "etag" in items else None
        self.content_length = (
            _parsed_length(items["content-length"][1])
            if "content-length" in items
            else None
        )
        self.kind = (
            items["x-resource-kind"][1] if "x-resource-kind" in items else None
        )
        self.version_key = (
            items["x-version-key"][1] if "x-version-key" in items else None
        )
        self.degraded = reason_in(items)

    def served(self, by: str) -> "Response":
        """This response as ``by`` hands it out: a new shell sharing
        the header map, the body and the facts — nothing is copied and
        nothing is read again."""
        shell = object.__new__(Response)
        shell.status = self.status
        shell.headers = self.headers
        shell.body = self.body
        shell.url = self.url
        shell.version = self.version
        shell.served_by = by
        shell.generated_at = self.generated_at
        shell.cache_control = self.cache_control
        shell.etag = self.etag
        shell.content_length = self.content_length
        shell.kind = self.kind
        shell.version_key = self.version_key
        shell.degraded = self.degraded
        return shell

    def __repr__(self) -> str:
        return (
            f"Response({int(self.status)} {self.url} v{self.version}"
            f" via {self.served_by})"
        )


def revalidates(request: Request, stored: Response) -> bool:
    """Whether ``request``'s validators match the stored response.

    True means the cache may answer ``304 Not Modified``.
    """
    token = request.if_none_match
    if token is None or stored.etag is None:
        return False
    candidates = {part.strip() for part in token.split(",")}
    return stored.etag in candidates or "*" in candidates


def make_not_modified(stored: Response, at: float) -> Response:
    """Build a ``304`` answer for a request whose validators matched."""
    validators = {}
    if stored.etag is not None:
        validators["ETag"] = stored.etag
    cache_control = stored.headers.get("Cache-Control")
    if cache_control is not None:
        validators["Cache-Control"] = cache_control
    return Response(
        status=Status.NOT_MODIFIED,
        headers=Headers(validators),
        url=stored.url,
        version=stored.version,
        served_by=stored.served_by,
        generated_at=at,
    )
