"""A browser client: private cache in front of a transport."""

from __future__ import annotations

import enum
from typing import Generator, List, Optional, Sequence

from repro.browser.cache import BrowserCache
from repro.cdn.network import Cdn
from repro.browser.transport import Transport
from repro.http.freshness import conditional_request_for
from repro.http.messages import Request, Response, Status
from repro.obs.tracer import NOOP_TRACER
from repro.sim.metrics import MetricRegistry


class Fetcher:
    """Anything that can resolve requests inside the simulation.

    The whole surface the page load engine, the cookie jar and the
    transaction coordinator call: ``fetch`` and ``fetch_many``. Both
    return a generator sub-process: drive it with ``yield from`` and
    receive the :class:`Response` (or the responses, in request order)
    as its return value. An implementer writes ``fetch``; the default
    ``fetch_many`` needs its ``transport`` to schedule on.
    """

    transport: Transport

    def fetch(self, request: Request) -> Generator:
        """Resolve one request."""
        raise NotImplementedError

    def fetch_many(self, requests: Sequence[Request]) -> Generator:
        """Resolve a wave of requests: parallel single fetches, unless
        the implementer has a batched path."""
        env = self.transport.env
        processes = [env.process(self.fetch(request)) for request in requests]
        done = yield env.all_of(processes)
        return [done[process] for process in processes]


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
        """Resolve one request (generator sub-process)."""
        span = self.tracer.start(
            "browser",
            self.transport.env.now,
            parent=request.trace,
            node=self.node,
            tier="browser",
        )
        request.trace = span.context
        response = yield from self._fetch_inner(request, span)
        span.set(status=int(response.status), served_by=response.served_by)
        self.tracer.finish(span, self.transport.env.now)
        return response

    def _fetch_inner(self, request: Request, span) -> Generator:
        if not request.method.is_safe:
            span.set(verdict="pass")
            response = yield from self._transport_fetch(request)
            return response
        cached = self.cache.serve(request, self.transport.env.now)
        yield from self.transport.charge(self.cache.store)
        if cached is not None:
            span.set(verdict="hit", version=cached.version)
            return cached

        base = self.cache.revalidation_base(
            request, self.transport.env.now
        )
        if base is not None:
            span.set(verdict="revalidate")
            conditional = conditional_request_for(request, base)
            response = yield from self._transport_fetch(conditional)
            if response.status == Status.NOT_MODIFIED:
                refreshed = self.cache.refresh(
                    request, response, self.transport.env.now
                )
                if refreshed is not None:
                    yield from self.transport.charge(self.cache.store)
                    span.set(revalidated="304", version=refreshed.version)
                    return refreshed
                response = yield from self._transport_fetch(request)
            span.set(revalidated="refetch")
            admitted = self.cache.admit(
                request, response, self.transport.env.now
            )
            yield from self.transport.charge(self.cache.store)
            return admitted

        span.set(verdict="miss")
        response = yield from self._transport_fetch(request)
        admitted = self.cache.admit(request, response, self.transport.env.now)
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
        singles = {}
        for index, request in enumerate(requests):
            if self.mode is not TransportMode.CDN:
                singles[index] = env.process(self.fetch(request))
                continue
            if not request.method.is_safe:
                singles[index] = env.process(self.fetch(request))
                continue
            cached = self.cache.serve(request, env.now)
            if cached is not None:
                responses[index] = cached
                continue
            if self.cache.revalidation_base(request, env.now) is not None:
                singles[index] = env.process(self.fetch(request))
                continue
            batched.append(index)
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
            done = yield env.all_of(list(singles.values()))
            for index, process in singles.items():
                responses[index] = done[process]
        return responses
