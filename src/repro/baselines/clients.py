"""Baseline fetchers and the cookie-attaching wrapper."""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.browser.client import Fetcher
from repro.browser.transport import Transport
from repro.http.headers import Headers
from repro.http.messages import Request


class NoCacheClient(Fetcher):
    """The no-caching-at-all baseline: every request hits the origin."""

    def __init__(self, node: str, transport: Transport) -> None:
        self.node = node
        self.transport = transport

    def fetch(self, request: Request) -> Generator:
        return self.transport.fetch_direct(self.node, request)


class CookieJarFetcher(Fetcher):
    """Wraps a fetcher, attaching the session cookie like a browser.

    Browsers send cookies on *every* same-site request. Baselines
    therefore leak the session to the origin on each fetch (forcing
    personalized responses private); the Speed Kit worker receives the
    same cookie-laden requests and scrubs them — the wrapper makes the
    comparison honest. It adds no frame of its own: both calls hand
    back the wrapped fetcher's generator; everything else of the
    wrapped fetcher is reached through ``inner``.
    """

    def __init__(self, inner: Fetcher, user_id: Optional[str]) -> None:
        self.inner = inner
        self.user_id = user_id
        if user_id is not None:
            #: The jar: one map, carried by every request built for
            #: this fetcher and given to every request that arrives
            #: with no headers of its own.
            self.request_headers = Headers({"Cookie": f"session={user_id}"})

    def _with_cookie(self, request: Request) -> Request:
        if self.user_id is None:
            return request
        headers = request.headers
        if headers is self.request_headers:  # the common case: built here
            return request
        if not headers:
            return request.with_headers(self.request_headers)
        if "Cookie" in headers:
            return request
        return request.with_header("Cookie", self.request_headers["Cookie"])

    def fetch(self, request: Request) -> Generator:
        return self.inner.fetch(self._with_cookie(request))

    def fetch_many(self, requests: Sequence[Request]) -> Generator:
        """The wrapped fetcher's wave, the cookie attached to every
        request *before* the batch reaches it."""
        return self.inner.fetch_many(
            [self._with_cookie(request) for request in requests]
        )
