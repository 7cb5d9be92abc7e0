"""HTTP cache node logic shared by edges, browser caches, and the SW.

Every caching node in the stack — CDN edge PoPs (shared), the browser
HTTP cache and the service worker cache (private) — follows the same
interaction protocol around a :class:`~repro.cdn.cache.CacheStore`:

1. :meth:`serve` — a fresh stored response, or ``None``;
2. :meth:`revalidation_base` — a stale ETag'd entry worth a
   conditional request;
3. :meth:`admit` / :meth:`refresh` — fold an upstream 200 / 304 back in.

Nodes are passive: they never touch the network or the clock. The
transport layer owns time.

Responses are values (DESIGN, *Messages are values*): a node stores the
response it is given, hands it out as ``entry.response.served(name)``
— a new shell around the stored header map and body — and a refresh
stores a new response instead of editing the old one. Nothing is
copied, because nothing a reader holds can be edited.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence

from repro.http.degraded import Degraded, mark
from repro.http.freshness import is_cacheable
from repro.http.messages import Request, Response, Status
from repro.sim.metrics import MetricRegistry

#: Called with ``(cache_key, response, now)`` after every admission.
AdmitObserver = Callable[[str, Response, float], None]


class HttpCache:
    """A passive caching node wrapping a :class:`CacheStore`."""

    #: Metric name prefix; subclasses override ("edge", "browser", "sw").
    METRIC_SCOPE = "cache"

    def __init__(
        self,
        name: str,
        store,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.name = name
        self.store = store
        self.metrics = metrics or MetricRegistry()
        #: This node's counters by short name (``counters["hit"]``).
        #: A shared node (a PoP: infrastructure, a handful per run)
        #: counts under its own name, ``edge.<pop>.hit``; a private one
        #: (a user's browser or service-worker cache) under the scope
        #: alone, ``sw.hit`` — a metric name never carries a user's id.
        scope = self.METRIC_SCOPE
        self.counters = self.metrics.handles(
            f"{scope}.{name}." if store.shared else f"{scope}."
        )
        #: Notified after each stored admission (PoP replication hooks
        #: in here; the node itself stays passive).
        self.admit_observers: List[AdmitObserver] = []

    @property
    def shared(self) -> bool:
        return self.store.shared

    def counted(self, which: str) -> float:
        """What ``counters[which]`` has counted so far. Reading never
        creates the counter."""
        counter = self.metrics.get_counter(self.counters.name_of(which))
        return counter.value if counter is not None else 0.0

    # -- request protocol ---------------------------------------------------

    def serve(self, request: Request, now: float) -> Optional[Response]:
        """The fresh stored response for ``request``, or ``None``."""
        key = request.url.cache_key
        entry = self.store.get_fresh(key, now)
        if entry is None:
            self.counters["miss"].inc()
            return None
        self.counters["hit"].inc()
        return entry.response.served(self.name)

    def serve_many(
        self, requests: Sequence[Request], now: float
    ) -> List[Optional[Response]]:
        """Batched :meth:`serve`: one response (or ``None``) per
        request, in order.

        All cache keys are looked up through the store's batched read,
        so a multi-asset wave against a batched storage engine costs
        ~one backend round trip instead of one per asset. Hit/miss
        accounting matches N single serves exactly.
        """
        keys = [request.url.cache_key for request in requests]
        entries = self.store.get_fresh_many(keys, now)
        responses: List[Optional[Response]] = []
        for key in keys:
            entry = entries.get(key)
            if entry is None:
                self.counters["miss"].inc()
                responses.append(None)
                continue
            self.counters["hit"].inc()
            responses.append(entry.response.served(self.name))
        return responses

    def serve_even_stale(self, key: str, now: float) -> Optional[Response]:
        """Any stored copy of cache key ``key`` regardless of freshness
        (for SWR and the sketch-based decision procedure, which has its
        own staleness rules). Asked by key: a device hit builds no
        request to ask with."""
        entry = self.store.get(key, now)
        if entry is None:
            return None
        return entry.response.served(self.name)

    def serve_stale_if_error(
        self, request: Request, now: float, grace: float
    ) -> Optional[Response]:
        """A bounded-stale copy after a failed upstream fetch.

        Serves the stored entry — expired or not — provided it was
        last verified against the origin (stored or 304-restamped)
        within ``grace`` seconds, so its version staleness stays within
        the normal bound plus ``grace``. The answer is marked
        :attr:`Degraded.STALE_IF_ERROR` so downstream caches refuse to
        re-admit it (admission would restamp the verification time and
        double the window) and the Δ-checker can account for it under
        the widened bound.
        """
        entry = self.store.peek(request.url.cache_key)
        # Written so that a NaN window fails closed: every comparison
        # with NaN is false, and an unbounded age must not be served
        # under a mark that says "bounded".
        if entry is None or not 0 <= now - entry.stored_at <= grace:
            return None
        self.counters["stale_if_error"].inc()
        return mark(entry.response.served(self.name), Degraded.STALE_IF_ERROR)

    def revalidation_base(
        self, request: Request, now: float
    ) -> Optional[Response]:
        """A stored response usable as the base of a conditional request."""
        entry = self.store.peek(request.url.cache_key)
        if entry is None or entry.response.etag is None:
            return None
        return entry.response

    def admit(
        self, request: Request, response: Response, now: float
    ) -> Response:
        """Store a fetched response if allowed; returns it (the store
        and the caller hold the one value).

        The never-cached rule of the degraded-response contract: a
        response marked for any :class:`Degraded` reason is refused,
        whatever its cache directives say. A stale copy's verification
        time lies with the cache that served it, and restamping it here
        would let the grace window compound across tiers; a shed
        placeholder or a downgraded transaction's read must not pose
        as the resource to the next client.
        """
        if (
            response.status == Status.OK
            and response.degraded is None
            and is_cacheable(response, shared=self.shared)
        ):
            key = request.url.cache_key
            self.store.put(key, response, now)
            self.counters["fill"].inc()
            for observer in self.admit_observers:
                observer(key, response, now)
        return response

    def refresh(
        self, request: Request, not_modified: Response, now: float
    ) -> Optional[Response]:
        """Apply a 304: store the entry's response restamped as fresh.

        Returns the refreshed full response, or ``None`` if the entry
        vanished meanwhile (caller falls back to a full fetch).
        """
        if not_modified.status != Status.NOT_MODIFIED:
            raise ValueError(f"refresh expects a 304, got {not_modified}")
        key = request.url.cache_key
        entry = self.store.peek(key)
        if entry is None:
            return None
        headers = entry.response.headers
        cache_control = not_modified.headers.get("Cache-Control")
        if cache_control is not None:
            headers = headers.with_item("Cache-Control", cache_control)
        refreshed = replace(
            entry.response,
            headers=headers,
            generated_at=not_modified.generated_at,
        )
        self.store.put(key, refreshed, now)
        self.counters["revalidated"].inc()
        return refreshed.served(self.name)

    # -- invalidation ----------------------------------------------------------

    def purge_many(self, keys: Sequence[str]) -> int:
        """Drop ``keys``; returns how many entries existed.

        The removals travel as one batched store operation, so a
        pipelined engine charges ~one round trip for the whole purge.
        """
        purged = self.store.remove_many(list(keys))
        if purged:
            self.counters["purge"].inc(purged)
        return purged
