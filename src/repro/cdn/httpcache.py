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
from typing import Callable, Dict, List, Optional, Sequence

from repro.http.degraded import Degraded, mark, reason_of
from repro.http.freshness import is_cacheable
from repro.http.messages import Request, Response, Status
from repro.sim.metrics import Counter, MetricRegistry

#: Called with ``(cache_key, response, now)`` after every admission.
AdmitObserver = Callable[[str, Response, float], None]


class HttpCache:
    """A passive caching node wrapping a :class:`CacheStore`."""

    #: Metric name prefix; subclasses override ("edge", "browser", "sw").
    #: A shared node (a PoP: infrastructure, a handful per run) counts
    #: under its own name, ``edge.<pop>.hit``; a private one (a user's
    #: browser or service-worker cache) under the scope alone,
    #: ``sw.hit`` — a metric name never carries a user's id.
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
        # This node's counters by short name, each created in the
        # registry by its first count (never earlier: a counter that
        # exists shows in the run's exported metrics).
        self._counters: Dict[str, Counter] = {}
        #: Notified after each stored admission (PoP replication hooks
        #: in here; the node itself stays passive).
        self.admit_observers: List[AdmitObserver] = []

    @property
    def shared(self) -> bool:
        return self.store.shared

    def _metric_name(self, which: str) -> str:
        if self.shared:
            return f"{self.METRIC_SCOPE}.{self.name}.{which}"
        return f"{self.METRIC_SCOPE}.{which}"

    def _count(self, which: str, amount: float = 1.0) -> None:
        counter = self._counters.get(which)
        if counter is None:
            counter = self._counters[which] = self.metrics.counter(
                self._metric_name(which)
            )
        counter.inc(amount)

    def counted(self, which: str) -> float:
        """What :meth:`_count` has counted under ``which`` so far.
        Reading never creates the counter."""
        counter = self.metrics.get_counter(self._metric_name(which))
        return counter.value if counter is not None else 0.0

    # -- request protocol ---------------------------------------------------

    def serve(self, request: Request, now: float) -> Optional[Response]:
        """The fresh stored response for ``request``, or ``None``."""
        key = request.url.cache_key()
        entry = self.store.get_fresh(key, now)
        if entry is None:
            self._count("miss")
            return None
        self._count("hit")
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
        keys = [request.url.cache_key() for request in requests]
        entries = self.store.get_fresh_many(keys, now)
        responses: List[Optional[Response]] = []
        for key in keys:
            entry = entries.get(key)
            if entry is None:
                self._count("miss")
                responses.append(None)
                continue
            self._count("hit")
            responses.append(entry.response.served(self.name))
        return responses

    def serve_even_stale(self, request: Request, now: float) -> Optional[Response]:
        """Any stored copy regardless of freshness (for SWR and the
        sketch-based decision procedure, which has its own staleness
        rules)."""
        entry = self.store.get(request.url.cache_key(), now)
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
        entry = self.store.peek(request.url.cache_key())
        # Written so that a NaN window fails closed: every comparison
        # with NaN is false, and an unbounded age must not be served
        # under a mark that says "bounded".
        if entry is None or not 0 <= now - entry.stored_at <= grace:
            return None
        self._count("stale_if_error")
        return mark(entry.response.served(self.name), Degraded.STALE_IF_ERROR)

    def revalidation_base(
        self, request: Request, now: float
    ) -> Optional[Response]:
        """A stored response usable as the base of a conditional request."""
        entry = self.store.peek(request.url.cache_key())
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
            and reason_of(response) is None
            and is_cacheable(response, shared=self.shared)
        ):
            key = request.url.cache_key()
            self.store.put(key, response, now)
            self._count("fill")
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
        key = request.url.cache_key()
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
        self._count("revalidated")
        return refreshed.served(self.name)

    # -- invalidation ----------------------------------------------------------

    def purge_many(self, keys: Sequence[str]) -> int:
        """Drop ``keys``; returns how many entries existed.

        The removals travel as one batched store operation, so a
        pipelined engine charges ~one round trip for the whole purge.
        """
        purged = self.store.remove_many(list(keys))
        if purged:
            self._count("purge", purged)
        return purged
