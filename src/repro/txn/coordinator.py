"""Multi-key read transactions over the edge-cached serving path.

The coordinator runs one transaction per call: it fetches every key in
parallel through the client's existing stack (service worker, browser
cache, CDN — whatever the scenario wires up), then applies the
requested rung of the consistency ladder:

- ``delta`` returns the per-key responses as-is; each already carries
  the Δ-atomicity guarantee of the underlying path.
- ``snapshot`` certifies a *version cut*: using the origin-stamped
  birth instant of each returned version (``X-Version-Born``) and the
  time the copy was last verified current (``generated_at``), a common
  instant exists iff ``max(born) <= min(verified)``. Keys verified
  before another key's version was born are fractured-read suspects
  and are re-fetched directly from the origin, for a bounded number of
  rounds.
- ``serializable`` additionally sends the read set's version vector to
  the origin's validation endpoint. A mismatch aborts the transaction:
  the stale keys are re-fetched, the cut re-certified, and validation
  retried, bounded by the retry budget.

Degradation is explicit, never silent: when the requested rung cannot
be met (origin outage, breaker open, retry budget exhausted, erased
keys), the result's ``achieved`` level drops, ``degraded`` is set, and
every returned response is marked :attr:`Degraded.TXN_DOWNGRADE` so
downstream accounting can tell a kept promise from a broken one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.http.degraded import Degraded, mark
from repro.http.messages import Request, Response, Status
from repro.http.url import URL
from repro.obs.span import NULL_SPAN
from repro.obs.tracer import NOOP_TRACER
from repro.txn.levels import ConsistencyLevel
from repro.txn.registry import TxnRegistry

#: Response header marking an explicitly degraded transaction serving;
#: the value is the consistency level that was actually achieved.
DEGRADED_HEADER = Degraded.TXN_DOWNGRADE.header


#: Serializable validation attempts before degrading: the first
#: validation plus this many retries after aborts.
VALIDATION_RETRIES = 3
#: Snapshot re-fetch rounds before giving up on a cut.
REFETCH_ROUNDS = 3


@dataclass
class KeyRead:
    """One key's read within a transaction."""

    url: URL
    response: Response
    read_at: float
    version_key: Optional[str] = None
    version: Optional[int] = None
    born: Optional[float] = None
    verified: Optional[float] = None
    refetched: bool = False

    @property
    def certifiable(self) -> bool:
        return (
            self.version_key is not None
            and self.version is not None
            and self.born is not None
        )


@dataclass
class TxnResult:
    """Outcome of one multi-key read transaction."""

    requested: ConsistencyLevel
    achieved: ConsistencyLevel
    degraded: bool
    reads: List[KeyRead] = field(default_factory=list)
    aborts: int = 0
    validation_retries: int = 0
    refetches: int = 0
    validated_at: Optional[float] = None
    erase_conflict: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def plt(self) -> float:
        """The transaction's page-load-time analogue."""
        return self.finished_at - self.started_at

    @property
    def silently_downgraded(self) -> bool:
        """A broken promise: served below the floor without the mark."""
        return self.achieved < self.requested and not self.degraded


def _extract_read(url: URL, response: Response, read_at: float) -> KeyRead:
    """Pull certification metadata out of one response."""
    if response.status != Status.OK:
        return KeyRead(url=url, response=response, read_at=read_at)
    born = response.headers.get("X-Version-Born")
    if born is not None:
        try:
            born = float(born)
        except ValueError:
            born = None
    return KeyRead(
        url=url,
        response=response,
        read_at=read_at,
        version_key=response.version_key,
        version=response.version,
        born=born,
        verified=response.generated_at,
    )


class TxnCoordinator:
    """Runs multi-key read transactions for one client."""

    def __init__(
        self,
        env,
        stack,
        transport,
        client_node: str,
        user_id: Optional[str] = None,
        registry: Optional[TxnRegistry] = None,
        tracer=None,
    ) -> None:
        self.env = env
        self.stack = stack
        self.transport = transport
        self.client_node = client_node
        self.user_id = user_id
        self.registry = registry
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # Per-key monotonic floor: the highest version this client has
        # returned for each key. A cache serving an older version to a
        # later transaction would regress the client's monotonic reads;
        # such reads are treated as cut violators and re-fetched.
        self._floor: Dict[str, int] = {}

    # -- public entry ------------------------------------------------------

    def execute(
        self,
        urls: Sequence[URL],
        level: ConsistencyLevel,
        trace=None,
    ) -> Generator:
        """Run one transaction (generator sub-process → TxnResult)."""
        level = ConsistencyLevel.parse(level)
        # Untraced, the inert span takes the degrade/refetch events;
        # the span and its closing attributes are built only traced.
        tracer = self.tracer
        span = NULL_SPAN
        if tracer.enabled:
            span = tracer.start(
                "txn",
                self.env.now,
                parent=trace,
                node=self.client_node,
                tier="client",
                user=self.user_id,
                level=level.value,
                n=len(urls),
            )
        result = TxnResult(
            requested=level,
            achieved=level,
            degraded=False,
            started_at=self.env.now,
        )
        context = (
            self.registry.begin(self.user_id)
            if self.registry is not None
            else None
        )
        try:
            yield from self._execute_inner(urls, level, result, context, span)
        finally:
            if context is not None and self.registry is not None:
                self.registry.finish(context)
        result.finished_at = self.env.now
        if result.achieved < result.requested:
            result.degraded = True
            for read in result.reads:
                # A new response: the one that was read may also sit in
                # the worker's cache, which keeps serving it unmarked.
                read.response = mark(
                    read.response,
                    Degraded.TXN_DOWNGRADE,
                    result.achieved.value,
                )
        for read in result.reads:
            if read.version_key is not None and read.version is not None:
                floor = self._floor.get(read.version_key, 0)
                if read.version > floor:
                    self._floor[read.version_key] = read.version
        if tracer.enabled:
            self._close_span(span, result)
        return result

    def _close_span(self, span, result: TxnResult) -> None:
        span.set(
            achieved=result.achieved.value,
            degraded=result.degraded,
            aborts=result.aborts,
            validation_retries=result.validation_retries,
            refetches=result.refetches,
            erase_conflict=result.erase_conflict,
            validated_at=result.validated_at,
            reads=[
                {
                    "url": str(read.url),
                    "version_key": read.version_key,
                    "version": read.version,
                    "born": read.born,
                    "verified": read.verified,
                    "read_at": read.read_at,
                    "status": int(read.response.status),
                    "served_by": read.response.served_by,
                    "refetched": read.refetched,
                }
                for read in result.reads
            ],
        )
        self.tracer.finish(span, self.env.now)

    def _execute_inner(
        self, urls, level, result: TxnResult, context, span
    ) -> Generator:
        processes = [
            self.env.process(self._read_one(url, span)) for url in urls
        ]
        done = yield self.env.all_of(processes)
        result.reads = [done[process] for process in processes]
        # Monotonic floor enforcement: a cached copy older than what
        # this client already saw is refetched regardless of level.
        regressed = [
            read
            for read in result.reads
            if read.version_key is not None
            and read.version is not None
            and read.version < self._floor.get(read.version_key, 0)
        ]
        if regressed:
            yield from self._refetch(regressed, result, span, "monotonic")
        if context is not None:
            for read in result.reads:
                if read.version_key is not None:
                    self.registry.buffer(
                        context, read.version_key, read.response
                    )
        if level is ConsistencyLevel.DELTA:
            return
        certified = yield from self._certify_snapshot(result, context, span)
        if not certified:
            result.achieved = ConsistencyLevel.DELTA
            span.event("degrade", at=self.env.now, to="delta")
            return
        if level is ConsistencyLevel.SNAPSHOT:
            return
        validated = yield from self._validate_serializable(
            result, context, span
        )
        if not validated:
            # The snapshot cut still holds (re-certified after every
            # refetch); only the serializable promise is withdrawn.
            result.achieved = ConsistencyLevel.SNAPSHOT
            span.event("degrade", at=self.env.now, to="snapshot")

    # -- per-key reads -----------------------------------------------------

    def _read_one(self, url: URL, span) -> Generator:
        read_span = None
        request = Request.get(
            url, headers=self.stack.request_headers, client_id=self.user_id
        )
        if self.tracer.enabled:
            read_span = self.tracer.start(
                "txn-read",
                self.env.now,
                parent=span,
                tier="client",
                url=str(url),
            )
            request.trace = read_span.context
        response = yield from self.stack.fetch(request)
        read = _extract_read(url, response, self.env.now)
        if read_span is not None:
            read_span.set(
                status=int(response.status),
                served_by=response.served_by,
                version=response.version,
            )
            self.tracer.finish(read_span, self.env.now)
        return read

    def _refetch_one(self, read: KeyRead, span) -> Generator:
        """Re-read one key directly from the origin (bypassing caches)."""
        fetch_span = None
        request = Request.get(read.url, client_id=self.user_id)
        if self.tracer.enabled:
            fetch_span = self.tracer.start(
                "txn-refetch",
                self.env.now,
                parent=span,
                tier="client",
                url=str(read.url),
            )
            request.trace = fetch_span.context
        response = yield from self.transport.fetch_direct(
            self.client_node, request, parent=fetch_span
        )
        if fetch_span is not None:
            fetch_span.set(
                status=int(response.status),
                served_by=response.served_by,
                version=response.version,
            )
            self.tracer.finish(fetch_span, self.env.now)
        fresh = _extract_read(read.url, response, self.env.now)
        fresh.refetched = True
        return fresh

    def _refetch(
        self, stale: List[KeyRead], result: TxnResult, span, why: str
    ) -> Generator:
        span.event(
            "refetch", at=self.env.now, n=len(stale), why=why
        )
        processes = [
            self.env.process(self._refetch_one(read, span)) for read in stale
        ]
        done = yield self.env.all_of(processes)
        replacements = {
            id(read): done[process]
            for read, process in zip(stale, processes)
        }
        result.reads = [
            replacements.get(id(read), read) for read in result.reads
        ]
        result.refetches += len(stale)

    def _rebuffer(self, result: TxnResult, context) -> None:
        if context is None:
            return
        for read in result.reads:
            if read.version_key is not None:
                self.registry.buffer(context, read.version_key, read.response)

    # -- snapshot certification --------------------------------------------

    def _poisoned_reads(self, result: TxnResult, context) -> List[KeyRead]:
        if context is None or not context.poisoned:
            return []
        return [
            read
            for read in result.reads
            if read.version_key is not None
            and read.version_key in context.poisoned
        ]

    def _handle_poison(self, result: TxnResult, context, span) -> Generator:
        """Drop reads an erase scrubbed mid-flight; re-read post-erase.

        The refetch observes the origin's post-erase state (typically a
        404 for the erased documents) — the scrubbed bytes held in the
        transaction's buffer are never returned.
        """
        poisoned = self._poisoned_reads(result, context)
        if not poisoned:
            return False
        result.erase_conflict = True
        span.event(
            "erase-conflict", at=self.env.now, keys=len(poisoned)
        )
        doomed_keys = {read.version_key for read in poisoned}
        yield from self._refetch(poisoned, result, span, "erase")
        context.poisoned -= doomed_keys
        return True

    def _certify_snapshot(self, result: TxnResult, context, span) -> Generator:
        """Establish a version cut over the certifiable reads.

        Returns True when every OK read fits a common instant. Reads
        without version metadata (errors, erased resources) cannot
        fracture a snapshot — there is no version to disagree about —
        but an OK read lacking certification metadata fails the cut.
        """
        rounds = 0
        while True:
            yield from self._handle_poison(result, context, span)
            ok_reads = [
                read
                for read in result.reads
                if read.response.status == Status.OK
            ]
            if any(not read.certifiable for read in ok_reads):
                return False
            if not ok_reads:
                return True
            cut = max(read.born for read in ok_reads)
            violators = [
                read for read in ok_reads if read.verified < cut
            ]
            if not violators:
                span.event(
                    "snapshot-cut", at=self.env.now, cut=cut
                )
                return True
            if rounds >= REFETCH_ROUNDS:
                span.event("cut-exhausted", at=self.env.now)
                return False
            rounds += 1
            yield from self._refetch(violators, result, span, "cut")
            self._rebuffer(result, context)

    # -- serializable validation -------------------------------------------

    def _validate_serializable(
        self, result: TxnResult, context, span
    ) -> Generator:
        attempts = 0
        while True:
            vector = {
                read.version_key: read.version
                for read in result.reads
                if read.certifiable
                and read.response.status == Status.OK
            }
            if not vector:
                # Nothing left to validate (all keys erased/errored):
                # the empty read set is trivially serializable.
                result.validated_at = self.env.now
                return True
            verdict = yield from self.transport.validate_txn(
                self.client_node, vector, parent=span
            )
            attempts += 1
            if verdict is None:
                # Validation unreachable (outage, breaker, budget):
                # the serializable promise cannot be kept.
                span.event("validation-unreachable", at=self.env.now)
                return False
            poisoned = yield from self._handle_poison(result, context, span)
            if poisoned:
                # An erase landed while the verdict was in flight; the
                # refetched reads must be re-certified and re-validated.
                result.aborts += 1
                certified = yield from self._certify_snapshot(
                    result, context, span
                )
                if not certified:
                    return False
                if attempts > VALIDATION_RETRIES:
                    span.event("retries-exhausted", at=self.env.now)
                    return False
                result.validation_retries += 1
                continue
            mismatched = [
                key for key in verdict.get("mismatched", ()) if key in vector
            ]
            if not mismatched:
                result.validated_at = verdict["validated_at"]
                span.event(
                    "validated",
                    at=self.env.now,
                    validated_at=result.validated_at,
                )
                return True
            result.aborts += 1
            span.event(
                "abort", at=self.env.now, conflicts=len(mismatched)
            )
            if attempts > VALIDATION_RETRIES:
                span.event("retries-exhausted", at=self.env.now)
                return False
            stale = [
                read
                for read in result.reads
                if read.version_key in mismatched
            ]
            yield from self._refetch(stale, result, span, "conflict")
            self._rebuffer(result, context)
            certified = yield from self._certify_snapshot(
                result, context, span
            )
            if not certified:
                return False
            result.validation_retries += 1
