"""The erasure/access coordinator: one walk over every tier.

:class:`ErasureCoordinator` is handed the assembled stack — the origin
document store, the CDN (PoPs plus replicator), the server Cache
Sketch, and a provider of every client-side cache (browser caches and
service-worker caches, created lazily per user) — and implements the
two data-subject rights as one tier walk:

* :meth:`erase` removes the user's bytes everywhere: origin documents
  are deleted through the store (so the invalidation pipeline sees the
  change events, and the origin drops the renditions built from them),
  the origin's rendition table drops whatever still names the user,
  cache tiers erase through their policy layer (one
  batched removal per tier, scatter-gathered by sharded engines and
  pipelined by batched ones), write-behind flush queues are scrubbed
  in place and barriered with ``sync()``, in-flight PoP replicas are
  superseded through the purge machinery, and the Cache Sketch forgets
  the user's plaintext keys. The coherence checkers' violation
  records — the only reads they keep — are pseudonymised the way an
  exported span is.
* :meth:`access` assembles a subject-access report from the same walk
  without mutating anything.

Both report their cost honestly: every simulated round trip the walk
causes (scans, batched removals, the write-behind flush barrier) is
drained into the report's ``simulated_latency``, which the harness
charges to the erasure request — erasure latency is a headline metric
of the GDPR benchmarking literature, not an afterthought.

Completeness is checked, not assumed: :meth:`residuals` re-walks every
tier through the deep (overlay-bypassing) residual view and returns
whatever still matches. After :meth:`erase` it must come back empty —
that is the property the ``gdpr-compliance`` CI gate enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.gdpr.matching import UserDataMatcher
from repro.gdpr.spanscrub import _scrub_value, user_hash
from repro.obs.tracer import NOOP_TRACER

#: ``client_stores`` provider: tier label -> CacheStore-like policy
#: layer (an object with ``erase_matching`` and a ``backend``).
StoreProvider = Callable[[], Dict[str, object]]


@dataclass
class ErasureReport:
    """What one :meth:`ErasureCoordinator.erase` call did."""

    user_id: str
    requested_at: float
    #: Origin documents deleted (store keys).
    origin_docs: List[str] = field(default_factory=list)
    #: Pre-built origin renditions dropped beyond those the document
    #: deletes already took (e.g. an empty-cart block naming the user).
    #: Derived copies, so not part of ``entries_removed``.
    renditions_dropped: int = 0
    #: Cache entries removed, per tier label.
    cache_removed: Dict[str, int] = field(default_factory=dict)
    #: Queued write-behind mutations scrubbed in place, per tier label.
    queued_scrubbed: Dict[str, int] = field(default_factory=dict)
    #: In-flight PoP replicas superseded by the erase.
    replicas_dropped: int = 0
    #: Plaintext keys forgotten by the server Cache Sketch.
    sketch_keys_forgotten: int = 0
    #: Surviving locations per tier label (empty == complete).
    residuals: Dict[str, List[str]] = field(default_factory=dict)
    #: Simulated seconds the walk cost (scans, batched removals, the
    #: write-behind flush barrier) — the erasure latency.
    simulated_latency: float = 0.0
    #: Buffered multi-key transaction reads poisoned mid-flight — an
    #: erase racing an in-flight serializable validation must not let
    #: the coordinator hand back the scrubbed bytes.
    txn_buffers_scrubbed: int = 0

    @property
    def entries_removed(self) -> int:
        return (
            sum(self.cache_removed.values())
            + len(self.origin_docs)
            + self.txn_buffers_scrubbed
        )

    @property
    def residual_count(self) -> int:
        return sum(len(keys) for keys in self.residuals.values())

    @property
    def complete(self) -> bool:
        return self.residual_count == 0


@dataclass
class AccessReport:
    """A subject-access (Art. 15) report: where the user's data lives."""

    user_id: str
    requested_at: float
    #: Origin documents, as ``{store_key: version}``.
    origin_docs: Dict[str, int] = field(default_factory=dict)
    #: Matching cache keys per tier label.
    cache_entries: Dict[str, List[str]] = field(default_factory=dict)
    #: Queued (acknowledged, unflushed) mutations per tier label.
    queued: Dict[str, List[str]] = field(default_factory=dict)
    #: Keys with in-flight PoP replicas.
    replicas_in_flight: List[str] = field(default_factory=list)
    #: Plaintext keys the server Cache Sketch currently tracks.
    sketch_keys: List[str] = field(default_factory=list)
    #: Pre-built origin renditions holding the user's bytes — among
    #: them the identity-only ones no document deletion would drop.
    renditions: List[str] = field(default_factory=list)
    #: Keys an in-flight multi-key transaction buffers for the user.
    txn_buffers: List[str] = field(default_factory=list)
    #: Simulated seconds the read-only walk cost.
    simulated_latency: float = 0.0

    @property
    def locations(self) -> int:
        return (
            len(self.origin_docs)
            + sum(len(keys) for keys in self.cache_entries.values())
            + sum(len(keys) for keys in self.queued.values())
            + len(self.replicas_in_flight)
            + len(self.sketch_keys)
            + len(self.renditions)
            + len(self.txn_buffers)
        )


class ErasureCoordinator:
    """Walks every tier of an assembled stack for erasure and access."""

    def __init__(
        self,
        store,
        cdn=None,
        sketch=None,
        client_stores: Optional[StoreProvider] = None,
        metrics=None,
        tracer=None,
        now_fn: Callable[[], float] = lambda: 0.0,
        txn_registry=None,
        overload=None,
        origin=None,
        checkers: Sequence[object] = (),
    ) -> None:
        self.store = store
        #: Optional :class:`~repro.origin.OriginServer` over ``store``:
        #: its rendition table holds rendered cart/profile bytes and is
        #: walked as the ``origin-renditions`` tier.
        self.origin = origin
        self.cdn = cdn
        self.sketch = sketch
        self._client_stores = client_stores or (lambda: {})
        #: In-flight multi-key transaction buffers (see
        #: :class:`repro.txn.TxnRegistry`); scrubbed during erase so a
        #: racing validation cannot resurrect erased bytes.
        self.txn_registry = txn_registry
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Optional :class:`~repro.overload.ControlPlane`: erasure and
        #: access ride its control lane — accounted, never shed, even
        #: at 50× offered load (the compliance property the overload
        #: suite pins).
        self.overload = overload
        self._now = now_fn
        #: :class:`~repro.coherence.DeltaAtomicityChecker`\ s whose
        #: violation records the erase pseudonymises.
        self.checkers = tuple(checkers)
        #: Users erased so far — the harness scrubs exported spans for
        #: exactly this set.
        self.erased_users: List[str] = []

    # -- tier enumeration ---------------------------------------------------

    def _cache_tiers(self) -> Dict[str, object]:
        """Every policy-layer cache in the stack, by tier label."""
        tiers: Dict[str, object] = {}
        if self.cdn is not None:
            for name, pop in self.cdn.pops.items():
                tiers[f"edge:{name}"] = pop.store
        tiers.update(self._client_stores())
        return tiers

    def _replicator(self):
        return self.cdn.replicator if self.cdn is not None else None

    def _drain(self, *backends) -> float:
        """Collect the simulated cost the walk accrued on ``backends``.

        Draining here charges the cost to the GDPR request instead of
        leaking it into the next unrelated transport drain.
        """
        return sum(backend.drain_latency() for backend in backends)

    def _all_backends(self, tiers: Dict[str, object]) -> List[object]:
        return [self.store.backend, *(tier.backend for tier in tiers.values())]

    # -- erasure ------------------------------------------------------------

    def erase(self, user_id: str) -> ErasureReport:
        """Remove ``user_id``'s bytes from every tier; verify; report."""
        matcher = UserDataMatcher(user_id)
        # Enumerated once: the walk itself creates no client stack.
        tiers = self._cache_tiers()
        now = self._now()
        if self.overload is not None:
            self.overload.control_ticket("erasure")
        report = ErasureReport(user_id=user_id, requested_at=now)
        span = self.tracer.start(
            "gdpr-erase",
            now,
            node="origin",
            tier="gdpr",
            # Erase spans are born pseudonymised: they must survive
            # their own scrubbing pass untouched.
            user=user_hash(user_id),
        )

        # 1. Origin: delete matching documents *through* the store, so
        # change events reach the invalidation pipeline and the sketch
        # exactly like an application-level delete.
        matched_docs = [
            (key, doc)
            for key, doc in self.store.backend.scan()
            if matcher.matches_entry(key, doc)
        ]
        for key, doc in matched_docs:
            self.store.delete(doc.collection, doc.doc_id, at=now)
            report.origin_docs.append(key)
        # The deletes above dropped every rendition built from those
        # documents; what is left names the user without depending on
        # one (the cart block of a user who never had a cart).
        if self.origin is not None:
            report.renditions_dropped = self.origin.erase_renditions(
                matcher.matches_entry
            )

        # 2. Cache tiers (edge PoPs, browser caches, SW caches): erase
        # through each policy layer — one batched removal per tier.
        edge_keys: List[str] = []
        for label, tier in tiers.items():
            removed = tier.erase_matching(matcher.matches_entry)
            if removed:
                report.cache_removed[label] = len(removed)
            if label.startswith("edge:"):
                edge_keys.extend(removed)

        # 3. Replication: purge-stamp the erased edge keys and drop
        # every matching in-flight copy via the supersession machinery.
        replicator = self._replicator()
        if replicator is not None:
            if edge_keys:
                replicator.note_purged(edge_keys)
            report.replicas_dropped = replicator.drop_in_flight_matching(
                matcher
            )

        # 4. Asynchronous queues: scrub matching payloads out of every
        # write-behind epoch queue in place, then barrier the flush so
        # the queued tombstones reach the wrapped engines *now* — the
        # erase is only complete once nothing lags behind an ack.
        barrier = 0.0
        for label, tier in (("origin", self.store), *tiers.items()):
            backend = tier.backend
            scrubbed = backend.scrub_pending(matcher.matches_entry)
            if scrubbed:
                report.queued_scrubbed[label] = scrubbed
            barrier += backend.sync()

        # 5. In-flight transactions: a serializable multi-key read that
        # started before this erase may be buffering the user's bytes
        # while it waits on its validation round trip. Poison those
        # buffers so the coordinator re-fetches them (observing the
        # post-erase origin) instead of handing back scrubbed content.
        if self.txn_registry is not None:
            report.txn_buffers_scrubbed = self.txn_registry.scrub_matching(
                matcher
            )

        # 6. The server Cache Sketch holds plaintext key strings.
        if self.sketch is not None:
            report.sketch_keys_forgotten = self.sketch.forget_matching(
                matcher.matches_key, now
            )

        # 7. The coherence checkers keep each read that broke the Δ
        # bound, with its client and resource key: pseudonymised here
        # the way an exported span is.
        pseudonym = user_hash(user_id)
        for checker in self.checkers:
            checker.violations[:] = [
                replace(
                    record,
                    client=_scrub_value(record.client, matcher, pseudonym),
                    resource_key=_scrub_value(
                        record.resource_key, matcher, pseudonym
                    ),
                )
                if matcher.matches_value(record)
                else record
                for record in checker.violations
            ]

        # 8. Verify completeness through the deep residual view and
        # charge the whole walk's simulated cost to this request.
        report.residuals = self._residuals(matcher, tiers)
        report.simulated_latency = barrier + self._drain(
            *self._all_backends(tiers)
        )

        self.erased_users.append(user_id)
        self._record_erase(report)
        span.set(
            removed=report.entries_removed,
            residuals=report.residual_count,
            latency=report.simulated_latency,
        )
        self.tracer.finish(span, now + report.simulated_latency)
        return report

    def _record_erase(self, report: ErasureReport) -> None:
        if self.metrics is None:
            return
        self.metrics.counter("gdpr.erase.count").inc()
        self.metrics.counter("gdpr.erase.removed").inc(
            report.entries_removed
        )
        self.metrics.counter("gdpr.erase.replicas_dropped").inc(
            report.replicas_dropped
        )
        self.metrics.counter("gdpr.erase.queued_scrubbed").inc(
            sum(report.queued_scrubbed.values())
        )
        self.metrics.counter("gdpr.erase.txn_buffers_scrubbed").inc(
            report.txn_buffers_scrubbed
        )
        # The completeness gate: a single surviving byte shows up here.
        self.metrics.counter("gdpr.erase.residuals").inc(
            report.residual_count
        )
        self.metrics.histogram("gdpr.erase.latency").observe(
            report.simulated_latency
        )

    # -- completeness -------------------------------------------------------

    def residuals(self, user_id: str) -> Dict[str, List[str]]:
        """Everywhere ``user_id``'s bytes still survive (deep view)."""
        return self._residuals(UserDataMatcher(user_id), self._cache_tiers())

    def _residuals(
        self, matcher: UserDataMatcher, tiers: Dict[str, object]
    ) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}

        def note(tier: str, keys: List[str]) -> None:
            if keys:
                found[tier] = keys

        note(
            "origin",
            self.store.backend.residuals_matching(matcher.matches_entry),
        )
        if self.origin is not None:
            note(
                "origin-renditions",
                self.origin.renditions_matching(matcher.matches_entry),
            )
        for label, tier in tiers.items():
            note(
                label,
                tier.backend.residuals_matching(matcher.matches_entry),
            )
        replicator = self._replicator()
        if replicator is not None:
            note(
                "replication",
                replicator.in_flight_matching(matcher.matches_key),
            )
        if self.sketch is not None:
            note("sketch", self.sketch.keys_matching(matcher.matches_key))
        if self.txn_registry is not None:
            note(
                "txn-buffers",
                self.txn_registry.buffers_matching(matcher),
            )
        note(
            "coherence",
            [
                record.resource_key
                for checker in self.checkers
                for record in checker.violations
                if matcher.matches_value(record)
            ],
        )
        return found

    # -- access -------------------------------------------------------------

    def access(self, user_id: str) -> AccessReport:
        """Assemble a subject-access report; mutates nothing."""
        matcher = UserDataMatcher(user_id)
        tiers = self._cache_tiers()
        now = self._now()
        if self.overload is not None:
            self.overload.control_ticket("access")
        report = AccessReport(user_id=user_id, requested_at=now)
        span = self.tracer.start(
            "gdpr-access",
            now,
            node="origin",
            tier="gdpr",
            user=user_id,
        )
        report.origin_docs = {
            key: doc.version
            for key, doc in self.store.backend.scan()
            if matcher.matches_entry(key, doc)
        }
        for label, tier in tiers.items():
            keys = [
                key
                for key in tier.keys()
                if (entry := tier.peek(key)) is not None
                and matcher.matches_entry(key, entry)
            ]
            if keys:
                report.cache_entries[label] = keys
        for label, tier in (("origin", self.store), *tiers.items()):
            keys = tier.backend.queued_matching(matcher.matches_entry)
            if keys:
                report.queued[label] = keys
        replicator = self._replicator()
        if replicator is not None:
            report.replicas_in_flight = replicator.in_flight_matching(
                matcher.matches_key
            )
        if self.sketch is not None:
            report.sketch_keys = self.sketch.keys_matching(
                matcher.matches_key
            )
        # In memory, so free: the tiers the completeness check walks
        # beyond the caches and queues above.
        if self.origin is not None:
            report.renditions = self.origin.renditions_matching(
                matcher.matches_entry
            )
        if self.txn_registry is not None:
            report.txn_buffers = self.txn_registry.buffers_matching(matcher)
        report.simulated_latency = self._drain(*self._all_backends(tiers))
        if self.metrics is not None:
            self.metrics.counter("gdpr.access.count").inc()
            self.metrics.histogram("gdpr.access.latency").observe(
                report.simulated_latency
            )
        span.set(locations=report.locations)
        self.tracer.finish(span, now + report.simulated_latency)
        return report
