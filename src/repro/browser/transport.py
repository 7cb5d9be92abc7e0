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
to off (the oracle to :data:`~repro.simnet.faults.NO_FAULTS`, whose
answers draw nothing), in which case every code path below is
draw-for-draw identical to the fault-free transport.
"""

from __future__ import annotations

import json
import random
from typing import Generator, List, Optional, Sequence

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
from repro.obs.span import NULL_SPAN
from repro.obs.tracer import NOOP_TRACER
from repro.origin.server import TXN_VALIDATE_PATH, OriginServer
from repro.overload.priority import classify_request
from repro.sim.environment import Environment
from repro.simnet.faults import NO_FAULTS, FaultSchedule
from repro.simnet.topology import ORIGIN_NODE, Topology

#: How long a sender waits out a lost message when no retry policy is
#: configured (one attempt, then give up with a synthesized 503).
DEFAULT_ATTEMPT_TIMEOUT = 1.0


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

    def _count_bytes(self, which: str, response: Response) -> None:
        """Egress accounting: who paid for these bytes. A response
        that declares no usable ``Content-Length`` is billed, and
        transferred, as headers only: 0 bytes."""
        if self.metrics is not None:
            self.metrics.counter(f"bytes.{which}").inc(
                response.content_length or 0
            )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def charge(self, store, concurrent: float = 0.0) -> Generator:
        """Convert a store's accrued engine latency into simulated time.

        The one drain of the cost pool: every tier's store (a cache's
        :class:`~repro.cdn.cache.CacheStore`, the origin's document
        store) is synchronous; when its storage engine is a simulated
        remote KV, the per-op cost accrues inside the engine and is
        drained here, at the node that performed the operations.
        ``concurrent`` is the network transit the caller pays right
        after this drain point — overlap-capable engines clip their
        pool against it (pipelining storage round trips under the
        transfer), serialized engines add in full.
        """
        lag = store.drain_latency(concurrent)
        if lag > 0:
            yield self.env.timeout(lag)

    # -- origin exchange ---------------------------------------------------

    def _origin_handle(self, request: Request) -> Response:
        """Let the origin answer — unless it is down (or browned out)."""
        if self.faults.should_fail(ORIGIN_NODE, self.env.now):
            return Response(
                status=Status.SERVICE_UNAVAILABLE,
                headers=Headers({"Cache-Control": "no-store"}),
                url=request.url,
                served_by=ORIGIN_NODE,
                generated_at=self.env.now,
            )
        return self.origin_server.handle(request, self.env.now)

    def _network_error(self, request: Request) -> Response:
        """The response a sender synthesizes after giving up."""
        return Response(
            status=Status.SERVICE_UNAVAILABLE,
            headers=Headers({"Cache-Control": "no-store"}),
            url=request.url,
            served_by="network",
            generated_at=self.env.now,
        )

    def _shed_response(self, request: Request, node: str) -> Response:
        """The degraded-but-marked answer a shed request resolves to.

        Marked :attr:`Degraded.LOAD_SHED`; it carries no version or
        validator, and its 200 status means the retry loop does not
        multiply load the governor just refused.
        """
        response = Response(
            status=Status.OK,
            headers=Headers({"Cache-Control": "no-store"}),
            url=request.url,
            served_by=node,
            generated_at=self.env.now,
        )
        return mark(response, Degraded.LOAD_SHED)

    def _origin_governor(self):
        if self.overload is None:
            return None
        return self.overload.origin_governor

    def _pop_governor(self, edge_name: str):
        if self.overload is None:
            return None
        return self.overload.pop_governor(edge_name)

    def _origin_attempt(
        self, from_node: str, request: Request, attempt_timeout: float, span
    ) -> Generator:
        """One request/response try against the origin.

        Returns ``None`` when a message was lost in transit — the
        sender waits out ``attempt_timeout`` (measured from send) and
        declares the attempt dead.
        """
        link = self.topology.link(from_node, ORIGIN_NODE)
        if self.faults.loses_message(from_node, ORIGIN_NODE):
            self._count("transport.lost_requests")
            span.event("lost-request", at=self.env.now)
            yield self.env.timeout(attempt_timeout)
            return None
        forward = self.topology.one_way(
            from_node, ORIGIN_NODE, self.rng
        ) * self.faults.latency_factor(from_node, ORIGIN_NODE)
        yield self.env.timeout(forward)
        governor = self._origin_governor()
        if governor is not None:
            admitted = yield from governor.acquire(
                classify_request(request), parent=span
            )
            if not admitted:
                # Admission control refused the request at the origin's
                # front door: the answer is an immediate, marked shed —
                # only the return leg is paid, no origin work happens.
                span.event("shed", at=self.env.now)
                yield self.env.timeout(
                    link.one_way(self.rng)
                    * self.faults.latency_factor(ORIGIN_NODE, from_node)
                )
                return self._shed_response(request, ORIGIN_NODE)
        response = self._origin_handle(request)
        self._count_bytes("origin_egress", response)
        if self.faults.loses_message(ORIGIN_NODE, from_node):
            # The origin did the work (and sent the bytes), but the
            # reply never arrives; the sender times out the remainder.
            self._count("transport.lost_responses")
            span.event("lost-response", at=self.env.now)
            yield self.env.timeout(max(0.0, attempt_timeout - forward))
            return None
        transit = link.one_way(self.rng) * self.faults.latency_factor(
            ORIGIN_NODE, from_node
        ) + link.transfer_time(response.content_length or 0)
        # Store latency may overlap with the response transit: the
        # origin's storage round trips and the return leg run
        # concurrently for a pipelining engine.
        yield from self.charge(
            self.origin_server.site.store, concurrent=transit
        )
        yield self.env.timeout(transit)
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
        """
        span = self.tracer.start(
            "origin",
            self.env.now,
            parent=parent if parent is not None else request.trace,
            node=ORIGIN_NODE,
            tier="origin",
            sender=from_node,
        )
        response = yield from self._origin_exchange_inner(
            from_node, request, span
        )
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
        policy = self.retry
        if policy is None:
            response = yield from self._origin_attempt(
                from_node, request, DEFAULT_ATTEMPT_TIMEOUT, span
            )
            return (
                response
                if response is not None
                else self._network_error(request)
            )
        deadline = self.env.now + policy.budget
        attempt = 0
        response: Optional[Response] = None
        while True:
            attempt += 1
            response = yield from self._origin_attempt(
                from_node, request, policy.attempt_timeout, span
            )
            if response is not None and not response.status.is_server_error:
                span.set(attempts=attempt)
                return response
            if attempt >= policy.max_attempts:
                break
            backoff = policy.backoff_after(attempt)
            if self.env.now + backoff >= deadline:
                self._count("transport.budget_exhausted")
                span.event("budget-exhausted", at=self.env.now)
                break
            self._count("transport.retries")
            span.event("retry", at=self.env.now, backoff=backoff)
            yield self.env.timeout(backoff)
        span.set(attempts=attempt)
        return (
            response if response is not None else self._network_error(request)
        )

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
            self._count("txn.validation_failures")
            return None
        try:
            verdict = json.loads(response.body)
        except (TypeError, ValueError):
            self._count("txn.validation_failures")
            return None
        if "validated_at" not in verdict:
            self._count("txn.validation_failures")
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
        self,
        client_node: str,
        request: Request,
        cdn: Cdn,
        edge_name: Optional[str] = None,
    ) -> Generator:
        """Client → nearest edge PoP → (origin on miss/stale)."""
        if edge_name is None:
            edge_name = self.topology.nearest_edge(client_node, self.rng)
        span = self.tracer.start(
            "transport",
            self.env.now,
            parent=request.trace,
            node=edge_name,
            tier="network",
            mode="cdn",
        )
        if self.breaker is not None and not self.breaker.allow(
            edge_name, self.env.now
        ):
            # Breaker open: bypass the PoP entirely, pass through.
            self._count("breaker.pass_through")
            span.event("breaker-open", at=self.env.now)
            response = yield from self.fetch_direct(
                client_node, request, parent=span
            )
            span.set(status=int(response.status), served_by=response.served_by)
            self.tracer.finish(span, self.env.now)
            return response
        edge = cdn.pop(edge_name)
        yield self.env.timeout(
            self.topology.one_way(client_node, edge_name, self.rng)
            * self.faults.latency_factor(client_node, edge_name)
        )
        if self.faults.should_fail(edge_name, self.env.now):
            # The PoP is dark: fail over to the origin directly.
            self._count("transport.edge_failures")
            span.event("edge-down", at=self.env.now)
            if self.breaker is not None:
                self.breaker.record_failure(edge_name, self.env.now)
            response = yield from self.fetch_direct(
                client_node, request, parent=span
            )
            span.set(status=int(response.status), served_by=response.served_by)
            self.tracer.finish(span, self.env.now)
            return response
        governor = self._pop_governor(edge_name)
        if governor is not None:
            admitted = yield from governor.acquire(
                classify_request(request), parent=span
            )
            if not admitted:
                # Shed at the PoP: the client still pays the return
                # leg, but no cache or origin work happens.
                span.event("shed", at=self.env.now)
                response = self._shed_response(request, edge_name)
                client_link = self.topology.link(client_node, edge_name)
                yield self.env.timeout(
                    client_link.one_way(self.rng)
                    * self.faults.latency_factor(edge_name, client_node)
                )
                span.set(
                    status=int(response.status),
                    served_by=response.served_by,
                    shed=True,
                )
                self.tracer.finish(span, self.env.now)
                return response
        if self.breaker is not None:
            self.breaker.record_success(edge_name)
        edge_span = self.tracer.start(
            "edge",
            self.env.now,
            parent=span,
            node=edge_name,
            tier="edge",
            key=str(request.url),
        )
        if edge.should_pass(request):
            # Credentialed request: relay through the edge without any
            # cache interaction.
            edge_span.set(verdict="pass")
            response = yield from self._origin_exchange(
                edge_name, request, parent=edge_span
            )
        else:
            response = edge.serve(request, self.env.now)
            if response is None:
                response = yield from self._fill_from_origin(
                    edge_name, edge, request, span=edge_span
                )
            else:
                edge_span.set(verdict="hit", version=response.version)
        answer = _honor_validators(request, response)
        if answer is not response:
            response = answer
            span.event("not-modified-to-client", at=self.env.now)
        self._count_bytes("edge_egress", response)
        client_link = self.topology.link(client_node, edge_name)
        transit = client_link.one_way(self.rng) * self.faults.latency_factor(
            edge_name, client_node
        ) + client_link.transfer_time(response.content_length or 0)
        # Edge storage round trips may pipeline under the client leg.
        yield from self.charge(edge.store, concurrent=transit)
        edge_span.set(status=int(response.status))
        self.tracer.finish(edge_span, self.env.now)
        yield self.env.timeout(transit)
        span.set(status=int(response.status), served_by=response.served_by)
        self.tracer.finish(span, self.env.now)
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
        self,
        client_node: str,
        requests: Sequence[Request],
        cdn: Cdn,
        edge_name: Optional[str] = None,
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
        if edge_name is None:
            edge_name = self.topology.nearest_edge(client_node, self.rng)
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
            self._count("breaker.pass_through")
            span.event("breaker-open", at=self.env.now)
            responses = yield from self._fetch_many_direct(
                client_node, requests, parent=span
            )
            self.tracer.finish(span, self.env.now)
            return responses
        edge = cdn.pop(edge_name)
        yield self.env.timeout(
            self.topology.one_way(client_node, edge_name, self.rng)
            * self.faults.latency_factor(client_node, edge_name)
        )
        if self.faults.should_fail(edge_name, self.env.now):
            self._count("transport.edge_failures")
            span.event("edge-down", at=self.env.now)
            if self.breaker is not None:
                self.breaker.record_failure(edge_name, self.env.now)
            responses = yield from self._fetch_many_direct(
                client_node, requests, parent=span
            )
            self.tracer.finish(span, self.env.now)
            return responses
        governor = self._pop_governor(edge_name)
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
                client_link = self.topology.link(client_node, edge_name)
                yield self.env.timeout(
                    client_link.one_way(self.rng)
                    * self.faults.latency_factor(edge_name, client_node)
                )
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
            self._count_bytes("edge_egress", response)
            total_length += response.content_length or 0
        client_link = self.topology.link(client_node, edge_name)
        transit = client_link.one_way(self.rng) * self.faults.latency_factor(
            edge_name, client_node
        ) + client_link.transfer_time(total_length)
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
        """Edge-side miss handling: conditional refetch where possible."""
        if span is None:
            span = NULL_SPAN
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
                span.set(verdict="revalidated", version=refreshed.version)
                return refreshed
            # Entry vanished between lookup and refresh: full refetch.
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
                self._count("transport.stale_if_error")
                span.set(verdict="stale-if-error", version=stale.version)
                return stale
        if upstream.status.is_server_error:
            span.set(verdict="error")
        else:
            span.set(verdict="fill", version=upstream.version)
        return edge.admit(request, upstream, self.env.now)
