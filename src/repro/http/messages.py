"""Request and response messages with cache validators."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.http.cache_control import CacheControl
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


@dataclass
class Request:
    """An HTTP request.

    ``client_id`` identifies the issuing simulated browser; it is
    metadata for the simulator (used by the GDPR layer to check what
    actually left the device), not an HTTP header.  ``trace`` carries
    the observability span context (:class:`repro.obs.span.SpanContext`)
    of the hop currently handling the request, so downstream tiers can
    parent their spans without global state; it is ``None`` whenever
    tracing is disabled.
    """

    method: Method
    url: URL
    headers: Headers = field(default_factory=Headers)
    body: Any = None
    client_id: Optional[str] = None
    trace: Any = None

    @classmethod
    def get(cls, url: URL, **kwargs: Any) -> "Request":
        return cls(method=Method.GET, url=url, **kwargs)

    @property
    def if_none_match(self) -> Optional[str]:
        return self.headers.get("If-None-Match")

    @property
    def credentialed(self) -> bool:
        """Whether the request carries a :data:`CREDENTIAL_HEADERS`."""
        return any(header in self.headers for header in CREDENTIAL_HEADERS)

    def with_header(self, name: str, value: str) -> "Request":
        """A copy with one header added/replaced (headers deep-copied)."""
        headers = self.headers.copy()
        headers[name] = value
        return self._with_headers(headers)

    def copy(self) -> "Request":
        return self._with_headers(self.headers.copy())

    def _with_headers(self, headers: Headers) -> "Request":
        # Direct construction: ``dataclasses.replace`` re-walks the
        # field list per call, and requests are copied on every hop.
        return Request(
            method=self.method,
            url=self.url,
            headers=headers,
            body=self.body,
            client_id=self.client_id,
            trace=self.trace,
        )

    def __repr__(self) -> str:
        return f"Request({self.method.value} {self.url})"


@dataclass
class Response:
    """An HTTP response.

    ``version`` and ``served_by`` are simulator metadata: ``version`` is
    the origin-side version number of the underlying resource (used by
    the Δ-atomicity checker), and ``served_by`` records which component
    produced the response (origin, an edge PoP, the browser cache, the
    service worker, ...).
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

    @property
    def etag(self) -> Optional[str]:
        return self.headers.get("ETag")

    @property
    def cache_control(self) -> CacheControl:
        return CacheControl.parse(self.headers.get("Cache-Control"))

    @property
    def ok(self) -> bool:
        return self.status == Status.OK

    def copy(self) -> "Response":
        """A shallow copy with independent headers.

        Caches hand out copies so one client mutating headers (e.g. the
        ``Age`` header added at serve time) cannot corrupt the stored
        entry.
        """
        return Response(
            status=self.status,
            headers=self.headers.copy(),
            body=self.body,
            url=self.url,
            version=self.version,
            served_by=self.served_by,
            generated_at=self.generated_at,
        )

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
    headers = Headers()
    if stored.etag is not None:
        headers["ETag"] = stored.etag
    cache_control = stored.headers.get("Cache-Control")
    if cache_control is not None:
        headers["Cache-Control"] = cache_control
    return Response(
        status=Status.NOT_MODIFIED,
        headers=headers,
        url=stored.url,
        version=stored.version,
        served_by=stored.served_by,
        generated_at=at,
    )
