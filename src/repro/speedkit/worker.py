"""The Speed Kit service worker proxy — the GDPR-compliant client proxy.

A :class:`~repro.browser.client.Fetcher`, so the page load engine can
drive it exactly like a plain browser. Per request it decides among
three paths:

* **pass-through** — no consent, unsafe method, or blacklisted path:
  the request goes directly to the origin, untouched (identical to not
  having Speed Kit at all);
* **user-personalized** — per-user blocks: fetched on the direct
  first-party connection with credentials from the PII vault; never
  cached in shared infrastructure;
* **accelerated** — everything else: identifying data is scrubbed,
  segment-personalized paths are rewritten to their segment variant,
  and the Cache Sketch decision procedure picks serve / revalidate /
  fetch against the service worker cache and the CDN.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Optional

from repro.cdn.cache import CacheStore
from repro.cdn.httpcache import HttpCache
from repro.cdn.network import Cdn
from repro.browser.client import BrowserClient, Fetcher
from repro.browser.transport import Transport
from repro.coherence.client import SketchClient
from repro.coherence.decision import ReadDecision, decide
from repro.http.degraded import Degraded, mark, reason_of
from repro.http.freshness import conditional_request_for
from repro.http.messages import Request, Response, Status
from repro.http.url import URL
from repro.obs.tracer import NOOP_TRACER
from repro.origin.server import SEGMENT_PARAM
from repro.sim.metrics import MetricRegistry
from repro.speedkit.config import SpeedKitConfig
from repro.speedkit.gdpr import (
    ConsentManager,
    PiiVault,
    Purpose,
    RequestScrubber,
)
from repro.speedkit.segments import SegmentResolver


class _SwCache(HttpCache):
    METRIC_SCOPE = "sw"


#: Distinct ``(url, segment)`` whose variant URL stays built.
_VARIANT_MEMO_SIZE = 8192


@lru_cache(maxsize=_VARIANT_MEMO_SIZE)
def _segment_variant(url: URL, segment: str) -> URL:
    """``url`` rewritten to its ``segment`` variant (``URL`` is frozen,
    so every worker of a segment shares the one instance)."""
    return url.with_param(SEGMENT_PARAM, segment)


class ServiceWorkerProxy(Fetcher):
    """One user's Speed Kit service worker."""

    def __init__(
        self,
        node: str,
        transport: Transport,
        cdn: Cdn,
        config: SpeedKitConfig,
        vault: PiiVault,
        consent: ConsentManager,
        segments: SegmentResolver,
        sketch_client: SketchClient,
        scrubber: Optional[RequestScrubber] = None,
        metrics: Optional[MetricRegistry] = None,
        fallback: Optional[Fetcher] = None,
        tracer=None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.env = transport.env
        self.cdn = cdn
        self.config = config
        self.vault = vault
        self.consent = consent
        self.segments = segments
        self.sketch_client = sketch_client
        self.scrubber = scrubber or RequestScrubber()
        self.metrics = metrics or MetricRegistry()
        # This worker's handles on the run-wide ``speedkit.<which>``
        # counters (a metric name never carries the user's id).
        self._counters = self.metrics.handles("speedkit.")
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.cache = _SwCache(
            f"sw:{node}",
            CacheStore(
                shared=False,
                max_entries=config.sw_cache_max_entries,
                max_bytes=config.sw_cache_max_bytes,
                backend=config.backend.build(salt=f"sw:{node}"),
            ),
            metrics=self.metrics,
        )
        # Requests the worker does NOT accelerate still flow through
        # the regular browser HTTP cache, exactly as without a service
        # worker installed.
        self.fallback = fallback or BrowserClient(
            node, transport, metrics=self.metrics
        )

    # -- navigation hook -----------------------------------------------------

    def on_navigate(self) -> Generator:
        """Called by the page driver before each navigation.

        Eagerly refreshes the Cache Sketch so in-page requests can use
        it without paying the fetch latency one by one.
        """
        if self.config.refresh_on_navigation and self.consent.allows(
            Purpose.ACCELERATION
        ):
            yield from self.sketch_client.ensure_fresh()
        return None

    # -- the fetch entry point ---------------------------------------------------

    def fetch(self, request: Request) -> Generator:
        """Resolve one request (generator sub-process)."""
        if not self.tracer.enabled:
            response = yield from self._fetch_routed(request, None)
            return response
        span = self.tracer.start(
            "sw",
            self.env.now,
            parent=request.trace,
            node=self.node,
            tier="sw",
        )
        request.trace = span.context
        response = yield from self._fetch_routed(request, span)
        span.set(status=int(response.status), served_by=response.served_by)
        self.tracer.finish(span, self.env.now)
        return response

    def _fetch_routed(self, request: Request, span) -> Generator:
        """Pick the request's path; returns that path's fetch, not yet
        started (the three paths are listed in the module docstring).
        ``span`` is ``None`` when tracing is off."""
        if self.consent.allows(Purpose.ACCELERATION):
            route = self.config.route(request.url.path)
            if route.user_block:
                self._counters["user_block"].inc()
                if span is not None:
                    span.set(path="user-block")
                return self._fetch_user_block(request)
            if request.method.is_safe and route.accelerate:
                self._counters["accelerated"].inc()
                if span is not None:
                    span.set(path="accelerated")
                return self._fetch_accelerated(
                    request, route.segmented, span
                )
        # Pass-through: untouched, through the plain browser stack —
        # exactly the no-Speed-Kit behaviour (browser HTTP cache included).
        self._counters["pass_through"].inc()
        if span is not None:
            span.set(path="pass-through")
        return self.fallback.fetch(request)

    def fetch_assembled(self, request: Request, blocks) -> Generator:
        """Fetch a skeleton page and stitch its dynamic blocks in.

        ``blocks`` is a sequence of
        :class:`~repro.speedkit.blocks.BlockSpec`. The skeleton travels
        the accelerated path (cacheable per segment); each block is
        fetched through :meth:`fetch` too, so user blocks automatically
        take the direct first-party connection. Failed optional blocks
        render empty; a failed required block fails the assembly with
        the block's error response.
        """
        from repro.speedkit.blocks import DynamicBlockAssembler

        skeleton = yield from self.fetch(request)
        if skeleton.status != Status.OK:
            return skeleton
        responses = yield self.transport.env.gather(
            [self.fetch(Request.get(spec.url)) for spec in blocks]
        )
        fetched = {}
        for spec, response in dict(zip(blocks, responses)).items():
            if response.status == Status.OK:
                fetched[spec.name] = response
            elif spec.optional:
                fetched[spec.name] = None
            else:
                return response
        self._counters["assembled_pages"].inc()
        return DynamicBlockAssembler().assemble(skeleton, fetched)

    # -- the other two paths --------------------------------------------------------

    def _fetch_user_block(self, request: Request) -> Generator:
        """Per-user content over the first-party connection.

        Credentials are attached from the vault here, inside the
        device; the request bypasses every shared cache (the browser
        cache still applies, but per-user responses are no-store).
        """
        identity = self.vault.identity_for_first_party()
        if identity is not None and "Cookie" not in request.headers:
            request = request.with_header("Cookie", f"session={identity}")
        return self.fallback.fetch(request)

    def _fetch_accelerated(
        self, request: Request, segmented: bool, span=None
    ) -> Generator:
        """The Cache Sketch path. A device hit reads each input once:
        the sketch (again only after a refresh) and the clock (again
        only after simulated time may have passed); it builds no
        request of its own — only a request that goes upstream is
        built, once, as the scrubbed variant."""
        url, headers, report = self.scrubber.clean(request)
        if report.anything_removed:
            self._counters["scrubbed"].inc()
        if segmented:
            url = _segment_variant(url, self.segments.resolve())
        context = span.context if span is not None else None

        # The decision procedure requires a sketch younger than Δ;
        # fetch one on demand if the navigation prefetch is missing.
        sketch_client = self.sketch_client
        sketch = sketch_client.usable_sketch()
        if sketch is None:
            yield from sketch_client.ensure_fresh(parent=context)
            sketch = sketch_client.usable_sketch()

        env = self.env
        cache = self.cache
        key = url.cache_key
        cached = cache.serve_even_stale(key, env.now)
        # ``Transport.charge``'s drain, inline: the device-hit path
        # pays its one drain without a call into the transport.
        lag = cache.store.backend.drain_latency()
        if lag > 0:
            yield env.timeout(lag)
        now = env.now
        decision = decide(key, cached, sketch, now)

        if decision is ReadDecision.SERVE_FROM_CACHE and sketch is not None:
            self._counters["served_from_cache"].inc()
            cache.counters["hit"].inc()
            if span is not None:
                span.set(verdict="hit", version=cached.version)
            return cached

        # The one request this path builds: the scrubbed variant. Its
        # ``trace`` is this worker's span (``fetch`` hung it on the
        # request), so downstream hops nest under it.
        scrubbed = Request(
            request.method,
            url,
            headers,
            request.body,
            request.client_id,
            request.trace,
        )
        if decision is ReadDecision.SERVE_FROM_CACHE:
            # The sketch service is unreachable: without a usable
            # sketch the Δ guarantee lapses. Serve degraded if allowed
            # (bounded stale-if-error first, unbounded offline second)
            # or fall back to revalidation.
            if span is not None:
                span.event("sketch-unusable", at=now)
            degraded = self._serve_degraded(scrubbed, cached, span)
            if degraded is not None:
                # A degraded serving is not a fresh cache hit: it is
                # counted by its own stale_if_error/offline tallies, so
                # the hit ratio only reports verified-fresh servings.
                return degraded
            decision = (
                ReadDecision.REVALIDATE
                if cached.etag is not None
                else ReadDecision.FETCH
            )

        self.cache.counters["miss"].inc()
        if decision is ReadDecision.REVALIDATE and cached is not None:
            if self.config.stale_while_revalidate and self._swr_allowed(
                scrubbed, cached
            ):
                self._counters["swr_served"].inc()
                if span is not None:
                    span.set(verdict="swr", version=cached.version)
                env.process(self._background_revalidate(scrubbed, cached))
                return cached
            self._counters["revalidations"].inc()
            if span is not None:
                span.set(verdict="revalidate")
            response = yield from self._revalidate(scrubbed, cached, span)
            return response

        self._counters["fetches"].inc()
        if span is not None:
            span.set(verdict="fetch")
        response = yield from self.transport.fetch_via_cdn(
            self.node, scrubbed, self.cdn
        )
        if response.status.is_server_error:
            degraded = self._serve_degraded(scrubbed, cached, span)
            if degraded is not None:
                return degraded
        admitted = self.cache.admit(scrubbed, response, env.now)
        yield from self.transport.charge(self.cache.store)
        return admitted

    def _serve_degraded(
        self, scrubbed: Request, cached: Optional[Response], span
    ) -> Optional[Response]:
        """The graceful-degradation ladder after an upstream failure.

        Bounded stale-if-error first: within the configured grace
        window the copy's verification age caps its staleness, so the
        serving stays inside the widened Δ bound. Unbounded offline
        mode is the last resort (and opts out of the bound entirely).
        Returns ``None`` when no degraded serving is possible;
        otherwise ``span``'s verdict (when tracing is on) names the
        serving's reason.
        """
        degraded = None
        window = self.config.stale_if_error_window
        if window is not None:
            degraded = self.cache.serve_stale_if_error(
                scrubbed, self.env.now, window
            )
            if degraded is not None:
                self._counters["stale_if_error_served"].inc()
        if degraded is None and cached is not None and self.config.offline_mode:
            degraded = self._serve_offline(cached)
        if degraded is not None and span is not None:
            span.set(
                verdict=reason_of(degraded).value, version=degraded.version
            )
        return degraded

    def _serve_offline(self, cached: Response) -> Response:
        """Answer from cache during an outage.

        Offline serving deliberately trades the Δ bound for
        availability; the response is marked so coherence checkers can
        account for it separately.
        """
        self._counters["offline_served"].inc()
        return mark(cached, Degraded.OFFLINE)

    def _swr_allowed(self, scrubbed: Request, cached: Response) -> bool:
        """May a flagged copy be served stale-while-revalidate?

        Only copies *verified current* (fetched or 304-revalidated)
        within the staleness budget qualify: a copy verified at ``t_v``
        can be at most ``now − t_v`` stale, so the budget is a hard,
        client-enforceable staleness bound — unlike the sketch flag,
        whose age the client cannot observe. TTL-expired copies never
        qualify (SWR must not revive arbitrarily old content).
        """
        from repro.http.freshness import is_fresh_at

        now = self.env.now
        if not is_fresh_at(cached, now, shared=False):
            return False
        entry = self.cache.store.peek(scrubbed.url.cache_key)
        if entry is None:
            return False
        verified_age = now - entry.stored_at
        return verified_age <= self.config.swr_staleness_budget

    def _revalidate(
        self, scrubbed: Request, cached: Response, span=None
    ) -> Generator:
        """Conditional refetch of a flagged/expired cached copy.
        ``span`` is ``None`` when tracing is off."""
        conditional = conditional_request_for(scrubbed, cached)
        response = yield from self.transport.fetch_via_cdn(
            self.node, conditional, self.cdn
        )
        if response.status == Status.NOT_MODIFIED:
            refreshed = self.cache.refresh(scrubbed, response, self.env.now)
            yield from self.transport.charge(self.cache.store)
            if refreshed is not None:
                if span is not None:
                    span.set(revalidated="304", version=refreshed.version)
                return refreshed
            response = yield from self.transport.fetch_via_cdn(
                self.node, scrubbed, self.cdn
            )
        if response.status.is_server_error:
            # Origin down: keep answering from the device (the paper's
            # offline-resilience story), bounded where configured.
            degraded = self._serve_degraded(scrubbed, cached, span)
            if degraded is not None:
                return degraded
        if span is not None:
            span.set(revalidated="refetch")
        admitted = self.cache.admit(scrubbed, response, self.env.now)
        yield from self.transport.charge(self.cache.store)
        return admitted

    def _background_revalidate(
        self, scrubbed: Request, cached: Response
    ) -> Generator:
        """SWR's async refresh: its own root trace, marked background
        so latency attribution never charges it to the page load."""
        self._counters["revalidations"].inc()
        span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "sw-background",
                self.env.now,
                node=self.node,
                tier="sw",
                background=True,
            )
        scrubbed = scrubbed.copy()
        scrubbed.trace = span.context if span is not None else None
        yield from self._revalidate(scrubbed, cached, span)
        if span is not None:
            self.tracer.finish(span, self.env.now)
