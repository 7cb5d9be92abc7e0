"""Asynchronous PoP-to-PoP replication of admitted edge entries.

A classic CDN fills each PoP independently: the first request in every
region pays the full origin round trip even when a sibling PoP already
holds the entry. With replication enabled, a PoP that admits a
cacheable response enqueues *replication events* to its sibling PoPs;
each event applies after a simulated propagation delay, pre-warming the
siblings without touching the origin.

Replication is asynchronous, so it interacts with invalidation: a
replica can be **in flight** while the pipeline purges its key. An
in-flight stale replica applied after the purge would re-poison the
sibling for an unbounded time, so the replicator tracks purge times
(the :class:`~repro.cdn.network.Cdn` reports every purge) and drops any
replica whose send instant precedes the purge. What remains is a
bounded race — a PoP may admit a just-superseded response (the classic
in-flight origin-fetch window) and replicate it, so siblings can serve
it for up to one propagation delay longer than the source. Coherence
accounting above widens the Δ bound by exactly that delay (the
``async_propagation`` term of ``ScenarioSpec.delta_terms``).

Only shared-cache (anonymous / segment-variant) entries ever reach a
PoP store, so replicating them to siblings moves no user-identifying
state between regions — the GDPR posture is unchanged.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.http.freshness import is_fresh_at
from repro.http.messages import Response
from repro.obs.tracer import NOOP_TRACER
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry

#: Default PoP-to-PoP propagation delay (seconds): an inter-region
#: one-way transit, the same order as the edge→origin leg.
DEFAULT_REPLICATION_DELAY = 0.05


class PopReplicator:
    """Fans admitted entries out to sibling PoPs after a delay."""

    def __init__(
        self,
        env: Environment,
        cdn,
        delay: float = DEFAULT_REPLICATION_DELAY,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0: {delay}")
        self.env = env
        # Weak: the CDN owns this replicator (``cdn.replicator``), and
        # each PoP's admit observer below holds it too.
        self._cdn = weakref.ref(cdn)
        self.delay = delay
        self.metrics = metrics or cdn.metrics
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Most recent purge instant per key; deliveries sent at or
        #: before it are dropped on arrival.
        self._purged_at: Dict[str, float] = {}
        self._last_prune = 0.0
        #: In-flight replica count per key (for purge-time accounting).
        self._in_flight: Dict[str, int] = {}
        cdn.attach_replicator(self)
        for name, pop in cdn.pops.items():
            pop.admit_observers.append(partial(self.on_admit, name))

    # -- admission side ----------------------------------------------------

    def on_admit(
        self, source: str, key: str, response: Response, now: float
    ) -> None:
        """A PoP stored a response: enqueue events to its siblings."""
        for name, sibling in self._cdn().pops.items():
            if name == source or key in sibling.store:
                continue
            self._in_flight[key] = self._in_flight.get(key, 0) + 1
            self.metrics.counter("replication.sent").inc()
            self.env.process(self._deliver(name, sibling, key, response, now))

    def _deliver(
        self, name: str, sibling, key: str, response: Response, sent_at: float
    ):
        span = self.tracer.start(
            "replication",
            sent_at,
            node=name,
            tier="replication",
            key=key,
            version=response.version,
        )
        outcome = yield from self._deliver_inner(
            name, sibling, key, response, sent_at
        )
        span.set(outcome=outcome)
        self.tracer.finish(span, self.env.now)

    def _deliver_inner(
        self, name: str, sibling, key: str, response: Response, sent_at: float
    ):
        yield self.env.timeout(self.delay)
        remaining = self._in_flight.get(key, 1) - 1
        if remaining:
            self._in_flight[key] = remaining
        else:
            self._in_flight.pop(key, None)
        if self._superseded(key, sent_at):
            # The key was purged after this replica left its source:
            # applying it would re-poison the sibling past the purge.
            self.metrics.counter("replication.dropped_purged").inc()
            return "dropped-purged"
        resident = sibling.store.peek(key)
        if resident is not None:
            if is_fresh_at(resident.response, self.env.now, shared=True):
                # The sibling's own copy is still serving; keep it.
                self.metrics.counter("replication.dropped_present").inc()
                return "dropped-present"
            if not self._newer_than(response, resident.response):
                # The resident is expired but the replica is no newer:
                # replacing it could regress a client's observed
                # version, so leave the expired copy to revalidate.
                self.metrics.counter("replication.dropped_present").inc()
                return "dropped-present"
        if not is_fresh_at(response, self.env.now, shared=True):
            self.metrics.counter("replication.dropped_stale").inc()
            return "dropped-stale"
        if resident is not None:
            self.metrics.counter("replication.replaced_stale").inc()
        sibling.store.put(key, response, self.env.now)
        self.metrics.counter(f"edge.{name}.replicated").inc()
        self.metrics.counter("replication.applied").inc()
        return "applied"

    @staticmethod
    def _newer_than(replica: Response, resident: Response) -> bool:
        """Whether applying ``replica`` over ``resident`` can only move
        observed versions forward."""
        if replica.version is None or resident.version is None:
            return False
        return replica.version > resident.version

    def _superseded(self, key: str, sent_at: float) -> bool:
        purged = self._purged_at.get(key)
        return purged is not None and purged >= sent_at

    # -- purge side --------------------------------------------------------

    def note_purged(self, keys: Iterable[str]) -> None:
        """The CDN purged these keys right now; in-flight replicas sent
        before this instant must not apply."""
        now = self.env.now
        self._prune(now)
        for key in keys:
            self._purged_at[key] = now

    def drop_in_flight_matching(self, predicate) -> int:
        """Supersede every in-flight replica whose key matches.

        The erasure path: replicas of an erased user's entries may be
        travelling between PoPs right now, and without this they would
        re-materialize the bytes at a sibling *after* the purge walk.
        Reuses the purge-supersession machinery — stamping the keys
        with the current instant drops every copy sent at or before it.
        Returns how many in-flight replicas were superseded.
        """
        matched = [key for key in self._in_flight if predicate(key)]
        if not matched:
            return 0
        superseded = self.in_flight_for(matched)
        self.note_purged(matched)
        return superseded

    def _prune(self, now: float) -> None:
        """Drop purge records no live replica can match.

        Every replica travels exactly ``delay``, so any still-in-flight
        replica was sent at or after ``now - delay``; a purge record
        stamped before that can never supersede one again. Pruning at
        most once per delay window keeps the bookkeeping O(recent
        purges) over an arbitrarily long run instead of growing with
        every purge ever issued.
        """
        if now - self._last_prune < self.delay:
            return
        self._last_prune = now
        horizon = now - self.delay
        self._purged_at = {
            key: at for key, at in self._purged_at.items() if at >= horizon
        }

    # -- accounting --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Replication events currently travelling between PoPs."""
        return sum(self._in_flight.values())

    def in_flight_for(self, keys: Iterable[str]) -> int:
        """How many in-flight replicas a purge of ``keys`` supersedes."""
        return sum(self._in_flight.get(key, 0) for key in keys)

    def in_flight_matching(self, predicate) -> List[str]:
        """Matching in-flight keys that could still *apply* somewhere.

        A replica superseded by a purge stamped this instant is still
        travelling, but it can only be dropped on arrival — it can
        never serve. The erasure completeness check therefore counts
        only live (non-superseded) matching replicas as residuals.
        """
        now = self.env.now
        return [
            key
            for key in self._in_flight
            if predicate(key) and not self._superseded(key, now)
        ]
