"""A browser client: private cache in front of a transport."""

from __future__ import annotations

import enum
from typing import Generator, Iterator, List, Optional, Sequence

from repro.browser.cache import BrowserCache
from repro.cdn.network import Cdn
from repro.browser.transport import Transport
from repro.http.freshness import conditional_request_for
from repro.http.headers import Headers
from repro.http.messages import Request, Response, Status
from repro.obs.tracer import NOOP_TRACER
from repro.sim.metrics import MetricRegistry


class Fetcher:
    """Anything that can resolve requests inside the simulation.

    The whole surface the page load engine, the runner and the
    transaction coordinator call: ``fetch`` and ``fetch_many``. Both
    return a generator sub-process: drive it with ``yield from`` and
    receive the :class:`Response` (or the responses, in request order)
    as its return value. An implementer writes ``fetch``; the default
    ``fetch_many`` needs its ``transport`` to schedule on.
    """

    transport: Transport
    #: The header map every request built for this fetcher carries
    #: (a page load's, a cart add's, a transaction read's): one map
    #: for all of them. A logged-in user's client holds one with the
    #: session cookie, the way a browser attaches it to every
    #: same-site request; an anonymous one shares this empty default.
    request_headers: Headers = Headers()

    def fetch(self, request: Request) -> Generator:
        """Resolve one request."""
        raise NotImplementedError

    def fetch_many(self, requests: Sequence[Request]) -> Generator:
        """Resolve a wave of requests: parallel single fetches, unless
        the implementer has a batched path."""
        return (
            yield self.transport.env.gather(
                [self.fetch(request) for request in requests]
            )
        )


class TransportMode(enum.Enum):
    """How a plain browser reaches the site."""

    DIRECT = "direct"  # no CDN: straight to the origin
    CDN = "cdn"  # classic CDN in front of the origin


class BrowserClient(Fetcher):
    """The baseline fetcher: browser cache + direct/CDN transport.

    On a cache hit the response is returned with zero network time. On
    a stale entry with an ETag the client revalidates conditionally; a
    304 restamps the entry. Everything else is a full fetch through the
    configured transport.
    """

    def __init__(
        self,
        node: str,
        transport: Transport,
        mode: TransportMode = TransportMode.DIRECT,
        cdn: Optional[Cdn] = None,
        cache: Optional[BrowserCache] = None,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ) -> None:
        if mode is TransportMode.CDN and cdn is None:
            raise ValueError("CDN mode needs a Cdn instance")
        self.node = node
        self.transport = transport
        self.mode = mode
        self.cdn = cdn
        self.metrics = metrics or MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.cache = cache or BrowserCache(
            f"browser:{node}", metrics=self.metrics
        )

    def _transport_fetch(self, request: Request) -> Generator:
        """The configured transport's fetch of ``request`` (not started)."""
        if self.mode is TransportMode.CDN:
            return self.transport.fetch_via_cdn(self.node, request, self.cdn)
        return self.transport.fetch_direct(self.node, request)

    def fetch(self, request: Request) -> Generator:
        """Resolve one request: :meth:`_fetch_inner`, not yet started,
        inside a ``browser`` span when tracing is on (untraced, this
        frame only forwards, so it is not a generator)."""
        if not self.tracer.enabled:
            return self._fetch_inner(request, None)
        return self._fetch_in_span(request)

    def _fetch_in_span(self, request: Request) -> Generator:
        env = self.transport.env
        span = self.tracer.start(
            "browser",
            env.now,
            parent=request.trace,
            node=self.node,
            tier="browser",
        )
        request.trace = span.context
        response = yield from self._fetch_inner(request, span)
        span.set(status=int(response.status), served_by=response.served_by)
        self.tracer.finish(span, env.now)
        return response

    def _fetch_inner(self, request: Request, span) -> Generator:
        """:meth:`fetch` without its own span; ``span`` is ``None``
        when tracing is off."""
        env = self.transport.env
        if not request.method.is_safe:
            if span is not None:
                span.set(verdict="pass")
            response = yield from self._transport_fetch(request)
            return response
        cached = self.cache.serve(request, env.now)
        yield from self.transport.charge(self.cache.store)
        if cached is not None:
            if span is not None:
                span.set(verdict="hit", version=cached.version)
            return cached

        base = self.cache.revalidation_base(request, env.now)
        if base is not None:
            if span is not None:
                span.set(verdict="revalidate")
            conditional = conditional_request_for(request, base)
            response = yield from self._transport_fetch(conditional)
            if response.status == Status.NOT_MODIFIED:
                refreshed = self.cache.refresh(request, response, env.now)
                if refreshed is not None:
                    yield from self.transport.charge(self.cache.store)
                    if span is not None:
                        span.set(revalidated="304", version=refreshed.version)
                    return refreshed
                response = yield from self._transport_fetch(request)
            if span is not None:
                span.set(revalidated="refetch")
            admitted = self.cache.admit(request, response, env.now)
            yield from self.transport.charge(self.cache.store)
            return admitted

        if span is not None:
            span.set(verdict="miss")
        response = yield from self._transport_fetch(request)
        admitted = self.cache.admit(request, response, env.now)
        yield from self.transport.charge(self.cache.store)
        return admitted

    def fetch_many(self, requests: Sequence[Request]) -> Generator:
        """Resolve a wave of requests as one multi-asset lookup.

        Browser-cache hits are answered locally; in CDN mode the
        remaining plain fetches travel together through
        :meth:`Transport.fetch_many_via_cdn` (one edge round trip, one
        batched PoP lookup). Requests that need individual handling —
        unsafe methods, conditional revalidations — and every request
        in direct mode run as parallel single fetches, which matches
        the page load engine's own wave parallelism. Responses come
        back in request order.
        """
        env = self.transport.env
        responses: List[Optional[Response]] = [None] * len(requests)
        batched: List[int] = []
        singles: List[int] = []

        def classify() -> Iterator[Generator]:
            # Hands each single fetch to the gather as it is found, so it
            # starts before the next request is looked up: its first step
            # drains the lookups so far from the store's cost pool.
            for index, request in enumerate(requests):
                if self.mode is TransportMode.CDN and request.method.is_safe:
                    cached = self.cache.serve(request, env.now)
                    if cached is not None:
                        responses[index] = cached
                        continue
                    if self.cache.revalidation_base(request, env.now) is None:
                        batched.append(index)
                        continue
                singles.append(index)
                yield self.fetch(request)

        gathered = env.gather(classify())
        yield from self.transport.charge(self.cache.store)
        if batched:
            fetched = yield from self.transport.fetch_many_via_cdn(
                self.node, [requests[index] for index in batched], self.cdn
            )
            for index, response in zip(batched, fetched):
                responses[index] = self.cache.admit(
                    requests[index], response, env.now
                )
            yield from self.transport.charge(self.cache.store)
        if singles:
            for index, response in zip(singles, (yield gathered)):
                responses[index] = response
        return responses
