"""Transport: moving requests across the simulated network.

All methods are generator *sub-processes*: callers drive them with
``yield from`` inside a simulation process. Time advances through the
timeouts sampled from the topology's links; cache and origin logic is
invoked synchronously at the simulated instant the message arrives.

Fault handling lives at this layer because this is where messages
exist: the ``faults`` oracle (a plain
:class:`~repro.simnet.faults.FaultSchedule` or a full
:class:`~repro.faults.injector.FaultInjector`) decides which nodes
fail, which traversals are lost, and which are slowed; the optional
:class:`~repro.faults.retry.RetryPolicy` bounds how hard an origin
exchange tries before synthesizing a 503; the optional
:class:`~repro.faults.breaker.CircuitBreaker` trips a repeatedly
failing PoP to origin pass-through; and ``stale_if_error`` lets the
edge answer a failed fill with a bounded-stale copy. All four default
to off; the oracle defaults to :data:`~repro.simnet.faults.NO_FAULTS`,
which the transport then never asks, so every leg is one delay draw.
With any other oracle each query is made where it always was, in the
same order, so a chaos run's coin flips are drawn as before.

A run's topology is built before its first request and never changes,
so each sender's route — its nearest PoP, the link to it and the link
to the origin — is looked up once, on the sender's first request.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.cdn.edge import EdgeCache
from repro.cdn.network import Cdn
from repro.http.degraded import Degraded, mark, reason_of
from repro.http.freshness import conditional_request_for
from repro.http.headers import Headers
from repro.http.messages import (
    Method,
    Request,
    Response,
    Status,
    make_not_modified,
    revalidates,
)
from repro.http.url import URL
from repro.obs.tracer import NOOP_TRACER
from repro.origin.server import TXN_VALIDATE_PATH, OriginServer
from repro.overload.priority import classify_request
from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.sim.metrics import MetricRegistry
from repro.simnet.faults import NO_FAULTS, FaultSchedule
from repro.simnet.topology import ORIGIN_NODE, Topology

#: How long a sender waits for a reply before declaring the attempt
#: lost (pays this as simulated time when a message is dropped).
ATTEMPT_TIMEOUT = 1.0


def _honor_validators(request: Request, response: Response) -> Response:
    """The edge's answer to the client's validators: a ``200`` whose
    ETag matches becomes a (cheap to transfer) ``304``.

    The never-304 rule of the degraded-response contract lives here: a
    response marked for any :class:`Degraded` reason goes out as it is
    — it must not pose as a confirmation that the client's copy is
    current.
    """
    if (
        response.status == Status.OK
        and revalidates(request, response)
        and reason_of(response) is None
    ):
        return make_not_modified(response, at=response.generated_at)
    return response


class _Resolved(dict):
    """Key -> ``resolve(key)``, computed on the key's first lookup.

    ``__missing__`` runs on a miss only, so a hit is a plain dict read.
    ``resolve`` closes over the topology alone: the memo holds what the
    topology holds, and no reference back to its transport.
    """

    __slots__ = ("resolve",)

    def __init__(self, resolve: Callable) -> None:
        super().__init__()
        self.resolve = resolve

    def __missing__(self, key):
        value = self[key] = self.resolve(key)
        return value


def _edge_route(topology: Topology, client: str):
    """``client``'s nearest PoP and the link to it."""
    edge_name = topology.nearest_edge(client)
    return edge_name, topology.link(client, edge_name)


class Transport:
    """Routes requests from one client node across the topology."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        origin_server: OriginServer,
        rng: random.Random,
        faults: FaultSchedule = NO_FAULTS,
        metrics=None,
        retry=None,
        breaker=None,
        stale_if_error: Optional[float] = None,
        tracer=None,
        overload=None,
    ) -> None:
        self.env = env
        self.topology = topology
        self.origin_server = origin_server
        self.rng = rng
        self.faults = faults
        self.metrics = metrics
        self.retry = retry
        self.breaker = breaker
        self.stale_if_error = stale_if_error
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Optional :class:`~repro.overload.ControlPlane`: concurrency
        #: governors in front of the origin and every PoP. ``None``
        #: keeps every code path draw-for-draw identical to the
        #: ungoverned transport.
        self.overload = overload
        #: Handles on the run's counters by full name (without a
        #: registry, on one nobody reads). Egress is counted as
        #: ``bytes.<who paid>``: a response that declares no usable
        #: ``Content-Length`` is billed, and transferred, as headers
        #: only: 0 bytes.
        self._counters = (
            metrics if metrics is not None else MetricRegistry()
        ).handles("")
        #: Each sender's route, resolved on its first request: a
        #: client's nearest PoP and link to it, and any sender's link
        #: to the origin.
        self._to_edge = _Resolved(lambda client: _edge_route(topology, client))
        self._to_origin = _Resolved(
            lambda sender: topology.link(sender, ORIGIN_NODE)
        )

    def charge(self, store, concurrent: float = 0.0) -> Tuple[Timeout, ...]:
        """Convert a store's accrued engine latency into simulated time.

        The one drain of the cost pool: every tier's store (a cache's
        :class:`~repro.cdn.cache.CacheStore`, the origin's document
        store) is synchronous; when its storage engine (``backend``) is
        a simulated remote KV, the per-op cost accrues inside the
        engine and is drained here, from the engine itself, at the node
        that performed the operations.
        ``concurrent`` is the network transit the caller pays right
        after this drain point — overlap-capable engines clip their
        pool against it (pipelining storage round trips under the
        transfer), serialized engines add in full.

        Returns the events to wait on — ``()`` or one timeout — so a
        process pays with ``yield from transport.charge(store)``
        without building a generator frame per drain.
        """
        lag = store.backend.drain_latency(concurrent)
        return (self.env.timeout(lag),) if lag > 0 else ()

    # -- origin exchange ---------------------------------------------------

    def _synthesized(
        self, request: Request, by: str, status=Status.SERVICE_UNAVAILABLE
    ) -> Response:
        """An uncacheable answer nobody rendered: a 503 from a node that
        is down (``by`` it) or from a sender that gave up (``by``
        ``"network"``)."""
        return Response(
            status=status,
            headers=Headers({"Cache-Control": "no-store"}),
            url=request.url,
            served_by=by,
            generated_at=self.env.now,
        )

    def _shed_response(self, request: Request, node: str) -> Response:
        """The degraded-but-marked answer a shed request resolves to.

        Marked :attr:`Degraded.LOAD_SHED`; it carries no version or
        validator, and its 200 status means the retry loop does not
        multiply load the governor just refused.
        """
        response = self._synthesized(request, node, Status.OK)
        return mark(response, Degraded.LOAD_SHED)

    def _origin_attempt(
        self, from_node: str, request: Request, span
    ) -> Generator:
        """One request/response try against the origin.

        When a message is lost in transit the sender waits out
        ``ATTEMPT_TIMEOUT`` (measured from send), declares the attempt
        dead and answers itself with a synthesized ``network`` 503.
        ``span`` is ``None`` when tracing is off.
        """
        env = self.env
        link = self._to_origin[from_node]
        faults = self.faults
        faulty = faults is not NO_FAULTS
        if faulty and faults.loses_message(from_node, ORIGIN_NODE):
            self._counters["transport.lost_requests"].inc()
            if span is not None:
                span.event("lost-request", at=env.now)
            yield env.timeout(ATTEMPT_TIMEOUT)
            return self._synthesized(request, "network")
        forward = link.delay.sample(self.rng)
        if faulty:
            forward *= faults.latency_factor(from_node, ORIGIN_NODE)
        yield env.timeout(forward)
        overload = self.overload
        governor = overload.origin_governor if overload else None
        if governor is not None:
            admitted = yield from governor.acquire(
                classify_request(request), parent=span
            )
            if not admitted:
                # Admission control refused the request at the origin's
                # front door: the answer is an immediate, marked shed —
                # only the return leg is paid, no origin work happens.
                if span is not None:
                    span.event("shed", at=env.now)
                back = link.delay.sample(self.rng)
                if faulty:
                    back *= faults.latency_factor(ORIGIN_NODE, from_node)
                yield env.timeout(back)
                return self._shed_response(request, ORIGIN_NODE)
        if faulty and faults.should_fail(ORIGIN_NODE, env.now):
            # The origin is down (or browned out).
            response = self._synthesized(request, ORIGIN_NODE)
        else:
            response = self.origin_server.handle(request, env.now)
        self._counters["bytes.origin_egress"].inc(response.content_length or 0)
        if faulty and faults.loses_message(ORIGIN_NODE, from_node):
            # The origin did the work (and sent the bytes), but the
            # reply never arrives; the sender times out the remainder.
            self._counters["transport.lost_responses"].inc()
            if span is not None:
                span.event("lost-response", at=env.now)
            yield env.timeout(max(0.0, ATTEMPT_TIMEOUT - forward))
            return self._synthesized(request, "network")
        transit = link.delay.sample(self.rng)
        if faulty:
            transit *= faults.latency_factor(ORIGIN_NODE, from_node)
        transit += link.transfer_time(response.content_length or 0)
        # Store latency may overlap with the response transit: the
        # origin's storage round trips and the return leg run
        # concurrently for a pipelining engine.
        yield from self.charge(
            self.origin_server.site.store, concurrent=transit
        )
        yield env.timeout(transit)
        return response

    def _origin_exchange(
        self, from_node: str, request: Request, parent=None
    ) -> Generator:
        """One logical origin exchange: attempts, backoff, budget.

        With no retry policy this is a single attempt — exactly the
        historical behaviour (plus a bounded wait if the profile loses
        the message). With one, failed attempts (lost messages or 5xx
        answers) retry with exponential backoff until the attempt count
        or the time budget runs out; a request that never got an answer
        resolves to a synthesized, uncacheable 503.

        Returns the exchange, not yet started: with no retry policy the
        attempt itself, else the retry loop; untraced, this frame only
        forwards, so it is not a generator.
        """
        exchange = (
            self._origin_attempt if self.retry is None else self._origin_exchange_inner
        )
        if not self.tracer.enabled:
            return exchange(from_node, request, None)
        return self._origin_exchange_in_span(exchange, from_node, request, parent)

    def _origin_exchange_in_span(
        self, exchange: Callable, from_node: str, request: Request, parent
    ) -> Generator:
        span = self.tracer.start(
            "origin",
            self.env.now,
            parent=parent if parent is not None else request.trace,
            node=ORIGIN_NODE,
            tier="origin",
            sender=from_node,
        )
        response = yield from exchange(from_node, request, span)
        span.set(
            status=int(response.status),
            served_by=response.served_by,
            synthesized=response.served_by == "network",
        )
        self.tracer.finish(span, self.env.now)
        return response

    def _origin_exchange_inner(
        self, from_node: str, request: Request, span
    ) -> Generator:
        """The retry loop around :meth:`_origin_attempt`, under the
        transport's retry policy."""
        policy = self.retry
        deadline = self.env.now + policy.budget
        attempt = 0
        while True:
            attempt += 1
            response = yield from self._origin_attempt(
                from_node, request, span
            )
            if not response.status.is_server_error:
                if span is not None:
                    span.set(attempts=attempt)
                return response
            if policy.gives_up_after(attempt):
                break
            backoff = policy.backoff_after(attempt)
            if self.env.now + backoff >= deadline:
                self._counters["transport.budget_exhausted"].inc()
                if span is not None:
                    span.event("budget-exhausted", at=self.env.now)
                break
            self._counters["transport.retries"].inc()
            if span is not None:
                span.event("retry", at=self.env.now, backoff=backoff)
            yield self.env.timeout(backoff)
        if span is not None:
            span.set(attempts=attempt)
        return response

    # -- transaction validation -------------------------------------------

    def validate_txn(
        self, from_node: str, version_map, parent=None
    ) -> Generator:
        """Optimistic serializable-read validation round trip.

        Sends the transaction's version vector (``version_key →
        version``) to the origin's validation endpoint and returns the
        decoded verdict, or ``None`` when the exchange failed (outage,
        lost messages, retry budget exhausted). Riding on
        :meth:`_origin_exchange` gives the RPC the same fault, retry,
        and backoff treatment as any other origin traffic.
        """
        request = Request(
            method=Method.POST,
            url=URL.parse(TXN_VALIDATE_PATH),
            headers=Headers({"Cache-Control": "no-store"}),
            body={"keys": dict(version_map)},
        )
        response = yield from self._origin_exchange(
            from_node, request, parent=parent
        )
        if response.status != Status.OK or not response.body:
            self._counters["txn.validation_failures"].inc()
            return None
        try:
            verdict = json.loads(response.body)
        except (TypeError, ValueError):
            self._counters["txn.validation_failures"].inc()
            return None
        if "validated_at" not in verdict:
            self._counters["txn.validation_failures"].inc()
            return None
        return verdict

    # -- direct path --------------------------------------------------------

    def fetch_direct(
        self, client_node: str, request: Request, parent=None
    ) -> Generator:
        """Client → origin, no intermediary cache."""
        response = yield from self._origin_exchange(
            client_node, request, parent=parent
        )
        return response

    # -- CDN path --------------------------------------------------------------

    def fetch_via_cdn(
        self, client_node: str, request: Request, cdn: Cdn
    ) -> Generator:
        """Client → nearest edge PoP → (origin on miss/stale)."""
        edge_name, client_link = self._to_edge[client_node]
        env = self.env
        faults = self.faults
        faulty = faults is not NO_FAULTS
        # The ``transport`` span and its ``edge`` child; both ``None``
        # when tracing is off, so an untraced fetch builds no span work.
        span = edge_span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "transport",
                env.now,
                parent=request.trace,
                node=edge_name,
                tier="network",
                mode="cdn",
            )
        if self.breaker is not None and not self.breaker.allow(
            edge_name, env.now
        ):
            # Breaker open: bypass the PoP entirely, pass through.
            self._counters["breaker.pass_through"].inc()
            if span is not None:
                span.event("breaker-open", at=env.now)
            response = yield from self.fetch_direct(
                client_node, request, parent=span
            )
            if span is not None:
                span.set(
                    status=int(response.status), served_by=response.served_by
                )
                self.tracer.finish(span, env.now)
            return response
        edge = cdn.pop(edge_name)
        forward = client_link.delay.sample(self.rng)
        if faulty:
            forward *= faults.latency_factor(client_node, edge_name)
        yield env.timeout(forward)
        now = env.now
        if faulty and faults.should_fail(edge_name, now):
            # The PoP is dark: fail over to the origin directly.
            self._counters["transport.edge_failures"].inc()
            if span is not None:
                span.event("edge-down", at=now)
            if self.breaker is not None:
                self.breaker.record_failure(edge_name, now)
            response = yield from self.fetch_direct(
                client_node, request, parent=span
            )
            if span is not None:
                span.set(
                    status=int(response.status), served_by=response.served_by
                )
                self.tracer.finish(span, env.now)
            return response
        overload = self.overload
        governor = overload.pop_governor(edge_name) if overload else None
        if governor is not None:
            admitted = yield from governor.acquire(
                classify_request(request), parent=span
            )
            if not admitted:
                # Shed at the PoP: the client still pays the return
                # leg, but no cache or origin work happens.
                if span is not None:
                    span.event("shed", at=env.now)
                response = self._shed_response(request, edge_name)
                back = client_link.delay.sample(self.rng)
                if faulty:
                    back *= faults.latency_factor(edge_name, client_node)
                yield env.timeout(back)
                if span is not None:
                    span.set(
                        status=int(response.status),
                        served_by=response.served_by,
                        shed=True,
                    )
                    self.tracer.finish(span, env.now)
                return response
            now = env.now
        if self.breaker is not None:
            self.breaker.record_success(edge_name)
        if span is not None:
            edge_span = self.tracer.start(
                "edge",
                now,
                parent=span,
                node=edge_name,
                tier="edge",
                key=str(request.url),
            )
        if edge.should_pass(request):
            # Credentialed request: relay through the edge without any
            # cache interaction.
            if edge_span is not None:
                edge_span.set(verdict="pass")
            response = yield from self._origin_exchange(
                edge_name, request, parent=edge_span
            )
        else:
            response = edge.serve(request, now)
            if response is None:
                response = yield from self._fill_from_origin(
                    edge_name, edge, request, span=edge_span
                )
            elif edge_span is not None:
                edge_span.set(verdict="hit", version=response.version)
        answer = _honor_validators(request, response)
        if answer is not response:
            response = answer
            if span is not None:
                span.event("not-modified-to-client", at=env.now)
        self._counters["bytes.edge_egress"].inc(response.content_length or 0)
        transit = client_link.delay.sample(self.rng)
        if faulty:
            transit *= faults.latency_factor(edge_name, client_node)
        transit += client_link.transfer_time(response.content_length or 0)
        # Edge storage round trips may pipeline under the client leg.
        yield from self.charge(edge.store, concurrent=transit)
        if edge_span is not None:
            edge_span.set(status=int(response.status))
            self.tracer.finish(edge_span, env.now)
        yield env.timeout(transit)
        if span is not None:
            span.set(status=int(response.status), served_by=response.served_by)
            self.tracer.finish(span, env.now)
        return response

    def _fetch_many_direct(
        self, client_node: str, requests: Sequence[Request], parent=None
    ) -> Generator:
        """Failover for a wave: parallel direct fetches, no edge."""
        processes = [
            self.env.process(
                self.fetch_direct(client_node, request, parent=parent)
            )
            for request in requests
        ]
        done = yield self.env.all_of(processes)
        return [done[process] for process in processes]

    def fetch_many_via_cdn(
        self, client_node: str, requests: Sequence[Request], cdn: Cdn
    ) -> Generator:
        """Multi-asset lookup: one edge round trip for a whole wave.

        Models HTTP/2-style multiplexing to the nearest PoP: the
        requests travel together on one client → edge leg, the edge
        looks all of them up in a single batched store read (one
        pipelined round trip on a batched engine), misses fill from the
        origin in parallel, and the responses share one return leg
        whose transfer time covers their combined payload. Returns the
        responses in request order.
        """
        if not requests:
            return []
        edge_name, client_link = self._to_edge[client_node]
        faults = self.faults
        faulty = faults is not NO_FAULTS
        span = self.tracer.start(
            "transport-batch",
            self.env.now,
            parent=requests[0].trace,
            node=edge_name,
            tier="network",
            mode="cdn",
            n=len(requests),
        )
        if self.breaker is not None and not self.breaker.allow(
            edge_name, self.env.now
        ):
            self._counters["breaker.pass_through"].inc()
            span.event("breaker-open", at=self.env.now)
            responses = yield from self._fetch_many_direct(
                client_node, requests, parent=span
            )
            self.tracer.finish(span, self.env.now)
            return responses
        edge = cdn.pop(edge_name)
        forward = client_link.delay.sample(self.rng)
        if faulty:
            forward *= faults.latency_factor(client_node, edge_name)
        yield self.env.timeout(forward)
        if faulty and faults.should_fail(edge_name, self.env.now):
            self._counters["transport.edge_failures"].inc()
            span.event("edge-down", at=self.env.now)
            if self.breaker is not None:
                self.breaker.record_failure(edge_name, self.env.now)
            responses = yield from self._fetch_many_direct(
                client_node, requests, parent=span
            )
            self.tracer.finish(span, self.env.now)
            return responses
        overload = self.overload
        governor = overload.pop_governor(edge_name) if overload else None
        if governor is not None:
            # The wave shares one multiplexed exchange, so it takes one
            # governor slot weighted by its size — the class is the most
            # protected one present so a wave carrying control traffic
            # is never shed ahead of its least sheddable member.
            cls = min(
                (classify_request(request) for request in requests),
                key=lambda c: c.rank,
            )
            admitted = yield from governor.acquire(
                cls, parent=span, weight=len(requests)
            )
            if not admitted:
                span.event("shed", at=self.env.now)
                responses = [
                    self._shed_response(request, edge_name)
                    for request in requests
                ]
                back = client_link.delay.sample(self.rng)
                if faulty:
                    back *= faults.latency_factor(edge_name, client_node)
                yield self.env.timeout(back)
                span.set(shed=True)
                self.tracer.finish(span, self.env.now)
                return responses
        if self.breaker is not None:
            self.breaker.record_success(edge_name)
        edge_span = self.tracer.start(
            "edge",
            self.env.now,
            parent=span,
            node=edge_name,
            tier="edge",
            n=len(requests),
        )
        responses: List[Optional[Response]] = [None] * len(requests)
        lookup = [
            index
            for index, request in enumerate(requests)
            if not edge.should_pass(request)
        ]
        served = edge.serve_many(
            [requests[index] for index in lookup], self.env.now
        )
        fills = {}
        for index, request in enumerate(requests):
            if index not in lookup:
                # Credentialed request: relay without cache interaction.
                fills[index] = self.env.process(
                    self._origin_exchange(edge_name, request, parent=edge_span)
                )
        hits = 0
        for index, response in zip(lookup, served):
            if response is not None:
                responses[index] = response
                hits += 1
            else:
                fills[index] = self.env.process(
                    self._traced_fill(
                        edge_name, edge, requests[index], edge_span
                    )
                )
        edge_span.set(
            verdict="batch", hits=hits, passes=len(requests) - len(lookup)
        )
        if fills:
            done = yield self.env.all_of(list(fills.values()))
            for index, process in fills.items():
                responses[index] = done[process]
        total_length = 0
        for index, response in enumerate(responses):
            response = _honor_validators(requests[index], response)
            responses[index] = response
            self._counters["bytes.edge_egress"].inc(response.content_length or 0)
            total_length += response.content_length or 0
        transit = client_link.delay.sample(self.rng)
        if faulty:
            transit *= faults.latency_factor(edge_name, client_node)
        transit += client_link.transfer_time(total_length)
        # The batched edge lookup drains once for the whole wave,
        # overlapping with the shared return leg where the engine can.
        yield from self.charge(edge.store, concurrent=transit)
        self.tracer.finish(edge_span, self.env.now)
        yield self.env.timeout(transit)
        self.tracer.finish(span, self.env.now)
        return responses

    def _traced_fill(
        self, edge_name: str, edge: EdgeCache, request: Request, parent
    ) -> Generator:
        """A batch-wave fill with its own span (one per missed asset)."""
        span = self.tracer.start(
            "edge-fill",
            self.env.now,
            parent=parent,
            node=edge_name,
            tier="edge",
            key=str(request.url),
        )
        response = yield from self._fill_from_origin(
            edge_name, edge, request, span=span
        )
        span.set(status=int(response.status))
        self.tracer.finish(span, self.env.now)
        return response

    def _fill_from_origin(
        self, edge_name: str, edge: EdgeCache, request: Request, span=None
    ) -> Generator:
        """Edge-side miss handling: conditional refetch where possible.
        ``span`` is ``None`` when tracing is off."""
        base = edge.revalidation_base(request, self.env.now)
        upstream_request = (
            conditional_request_for(request, base)
            if base is not None
            else request
        )
        upstream = yield from self._origin_exchange(
            edge_name, upstream_request, parent=span
        )
        if upstream.status == Status.NOT_MODIFIED and base is not None:
            refreshed = edge.refresh(request, upstream, self.env.now)
            if refreshed is not None:
                if span is not None:
                    span.set(verdict="revalidated", version=refreshed.version)
                return refreshed
            # Entry vanished between lookup and refresh: full refetch.
            if span is not None:
                span.event("revalidation-base-vanished", at=self.env.now)
            upstream = yield from self._origin_exchange(
                edge_name, request, parent=span
            )
        if (
            self.stale_if_error is not None
            and upstream.status.is_server_error
        ):
            # The fill failed: within the grace window the edge may
            # answer with its (expired but recently verified) copy.
            stale = edge.serve_stale_if_error(
                request, self.env.now, self.stale_if_error
            )
            if stale is not None:
                self._counters["transport.stale_if_error"].inc()
                if span is not None:
                    span.set(verdict="stale-if-error", version=stale.version)
                return stale
        if span is not None:
            if upstream.status.is_server_error:
                span.set(verdict="error")
            else:
                span.set(verdict="fill", version=upstream.version)
        return edge.admit(request, upstream, self.env.now)
