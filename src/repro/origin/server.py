"""The origin HTTP server (the paper's Orestes middleware, reduced).

Renders site resources into responses with ETags, ``Content-Length``
and ``Cache-Control`` headers, tracks ground-truth resource versions,
and exposes a write API. Every change is resolved once to the resources
it affects — document dependents plus *query* resources, matched
InvaliDB-style against both the before- and after-image — whose
versions are bumped and whose affected set is handed to the change
observers (the invalidation pipeline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from repro.http.cache_control import CacheControl
from repro.http.headers import Headers
from repro.http.messages import (
    Method,
    Request,
    Response,
    Status,
    make_not_modified,
)
from repro.http.url import URL
from repro.origin.matcher import QueryMatcher
from repro.origin.query import Query
from repro.origin.site import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.origin.store import ChangeEvent, Document
from repro.origin.versioning import ResourceVersions

#: Query parameter the Speed Kit service worker uses to request a
#: segment variant of a personalized resource.
SEGMENT_PARAM = "sk_segment"

#: Endpoint the optimistic transaction validation RPC is served on.
TXN_VALIDATE_PATH = "/api/txn/validate"

#: Signature of origin serve observers: (version_key, cache_key,
#: response, now).
ServeObserver = Callable[[str, str, "Response", float], None]

#: Signature of origin change observers: (affected version keys, at).
ChangeObserver = Callable[[FrozenSet[str], float], None]


class TtlPolicy(Protocol):
    """Decides the Cache-Control header of each rendered response.

    The answer is a value (:class:`CacheControl` is frozen): the origin
    may hold it, and the response it prebuilt from it, for as long as
    the policy keeps giving an answer that serializes the same.
    """

    def cache_control(
        self, spec: ResourceSpec, url: URL, personalized_for_user: bool
    ) -> CacheControl:
        """The directives for one response, asked per response."""
        ...  # pragma: no cover - protocol

    def observe_resource_write(self, resource_key: str, now: float) -> None:
        """A write to ``resource_key`` was detected at ``now`` (the
        invalidation pipeline reports every one)."""
        ...  # pragma: no cover - protocol


class StaticTtlPolicy:
    """Fixed TTLs per resource kind — the classic CDN configuration.

    ``ttl_hint`` on a spec overrides the kind default. User-personalized
    responses are always ``private, no-store``-equivalent: a shared
    cache must never store them (this is both the correctness and the
    GDPR constraint of the baseline).

    The answer is a pure function of the spec's kind and TTL hint and
    the identity flag, with the TTL table fixed at construction, so
    each distinct answer is built once and handed out again.
    """

    #: Default freshness lifetime per resource kind, in seconds.
    DEFAULT_TTLS: Dict[ResourceKind, float] = {
        ResourceKind.STATIC: 365 * 24 * 3600.0,
        ResourceKind.PAGE: 300.0,
        ResourceKind.API: 60.0,
        ResourceKind.QUERY: 60.0,
        ResourceKind.FRAGMENT: 0.0,
    }

    def __init__(
        self,
        overrides: Optional[Mapping[ResourceKind, float]] = None,
        stale_while_revalidate: Optional[float] = None,
    ) -> None:
        self.ttls = dict(self.DEFAULT_TTLS)
        if overrides:
            self.ttls.update(overrides)
        self.stale_while_revalidate = stale_while_revalidate
        # Keyed by the kind's value: ``Enum.__hash__`` is a Python frame.
        self._answers: Dict[Tuple[str, Optional[float], bool], CacheControl] = {}

    def cache_control(
        self, spec: ResourceSpec, url: URL, personalized_for_user: bool
    ) -> CacheControl:
        key = (spec.kind._value_, spec.ttl_hint, personalized_for_user)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._decide(
                spec.kind, spec.ttl_hint, personalized_for_user
            )
        return answer

    def _decide(
        self,
        kind: ResourceKind,
        ttl_hint: Optional[float],
        personalized_for_user: bool,
    ) -> CacheControl:
        if personalized_for_user:
            return CacheControl(no_store=True, private=True)
        ttl = ttl_hint if ttl_hint is not None else self.ttls[kind]
        if ttl <= 0:
            return CacheControl(no_store=True)
        return CacheControl(
            public=True,
            max_age=float(ttl),
            immutable=kind is ResourceKind.STATIC,
            stale_while_revalidate=self.stale_while_revalidate,
        )

    def observe_resource_write(self, resource_key: str, now: float) -> None:
        """Fixed TTLs learn nothing from writes."""


#: GDPR predicate over the rendition table: (version key, rendition).
RenditionPredicate = Callable[[str, "Rendition"], bool]


def _request_facts(headers: Headers) -> Tuple[Optional[str], FrozenSet[str]]:
    """What the *origin* reads off a request's header map: the user
    identity it can see, and the entity tags ``If-None-Match`` lists.

    With the classic setup the session cookie travels along; with
    Speed Kit the service worker strips it, so the origin renders the
    anonymous/segment variant instead.
    """
    identity = headers.get("X-User-Id") or None
    if identity is None:
        cookie = headers.get("Cookie")
        if cookie:
            for part in cookie.split(";"):
                name, _, value = part.strip().partition("=")
                if name == "session" and value:
                    identity = value
                    break
    token = headers.get("If-None-Match")
    tags = token.split(",") if token else ()
    return identity, frozenset(part.strip() for part in tags)


class EngineReads(NamedTuple):
    """The modelled storage access one response performs."""

    #: The resource's own documents by store key (``collection/doc_id``),
    #: one engine ``get`` each.
    doc_keys: Tuple[str, ...]
    #: ``carts/…`` and ``profiles/…`` of the user rendered for.
    user_keys: Tuple[str, ...]
    #: QUERY resources: one engine scan of the query's collection
    #: instead of the reads above.
    scan: Optional[Query]


class Prebuilt(NamedTuple):
    """A rendition's ``200`` for one ``Cache-Control`` value, and the
    ``304`` that answers a matching validator in its place."""

    cache_control: str
    ok: Response
    not_modified: Response


@dataclass(frozen=True)
class Rendition:
    """The pre-built representation of one live variant.

    Everything about a response that is a function of the documents —
    as opposed to the request and the clock — materialised when the
    variant is first rendered and kept until a change bumps its
    version key. Holds rendered user bytes, so the GDPR walk treats
    the table as a tier.
    """

    reads: EngineReads
    version: int
    body: str
    etag: str
    born: str
    #: Filled by :func:`repro.gdpr.matching.identity_text` on the first
    #: GDPR visit; a version bump drops the rendition.
    _identity_text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The latest :class:`Prebuilt` per identity flag (whether the
    #: response is personalized for the requesting user). It restates
    #: the fields above as a response, so like the identity text it is
    #: bookkeeping the GDPR walk skips, and it goes with the rendition.
    _prebuilt: Dict[bool, Prebuilt] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


class OriginServer:
    """Serves the site over simulated HTTP and tracks versions.

    Responses are served from a rendition table: version key →
    segment → :class:`Rendition`. A rendition is created by the first
    render of its variant and dropped by :meth:`_on_change` in the same
    step that bumps its version key, so a rendition that is present is
    current; nothing else (no TTL, size limit or switch) governs it.
    Each rendition keeps its response prebuilt for the policy's latest
    ``Cache-Control`` answer, and every request gets a shell of its own
    (:meth:`Response.answering`).
    """

    def __init__(
        self,
        site: Site,
        ttl_policy: Optional[TtlPolicy] = None,
    ) -> None:
        self.site = site
        self.ttl_policy: TtlPolicy = ttl_policy or StaticTtlPolicy()
        self.versions = ResourceVersions()
        # Every registered query resource, subscribed when first resolved.
        self._matcher = QueryMatcher()
        self._renditions: Dict[str, Dict[Optional[str], Rendition]] = {}
        # (cache key, user id) -> version key: pure, so resolved once.
        self._version_keys: Dict[Tuple[str, Optional[str]], str] = {}
        self.requests_served = 0
        self.writes_applied = 0
        self.txn_validations = 0
        # Called with (version_key, cache_key, response, now) for every
        # successful response — the Cache Sketch backend listens here to
        # learn which copies exist and until when they stay fresh.
        self.serve_observers: List[ServeObserver] = []
        # Called with (affected version keys, at) for every change, the
        # keys already bumped — the invalidation pipeline listens here
        # to report, observe and purge exactly what changed.
        self.change_observers: List[ChangeObserver] = []
        site.store.subscribe(self._on_change)

    @property
    def rendition_count(self) -> int:
        """Renditions currently held (one per live variant)."""
        return sum(len(variants) for variants in self._renditions.values())

    def _variants_matching(
        self, predicate: RenditionPredicate
    ) -> List[Tuple[str, Optional[str]]]:
        return [
            (version_key, segment)
            for version_key, variants in self._renditions.items()
            for segment, rendition in variants.items()
            if predicate(version_key, rendition)
        ]

    def renditions_matching(self, predicate: RenditionPredicate) -> List[str]:
        """Labels of the renditions ``predicate`` matches (GDPR walk)."""
        return [
            version_key if segment is None else f"{version_key}#{segment}"
            for version_key, segment in self._variants_matching(predicate)
        ]

    def erase_renditions(self, predicate: RenditionPredicate) -> int:
        """Drop every rendition ``predicate`` matches; returns the count.

        Dropping is always safe — the next request rebuilds — and it is
        what reaches a user rendition that holds only the identity (an
        empty cart has no document whose deletion would drop it).
        """
        matched = self._variants_matching(predicate)
        for version_key, segment in matched:
            variants = self._renditions[version_key]
            del variants[segment]
            if not variants:
                del self._renditions[version_key]
        return len(matched)

    # -- write path ----------------------------------------------------------

    def write(
        self,
        collection: str,
        doc_id: str,
        data: Mapping[str, Any],
        at: float,
    ) -> None:
        """Apply a document write (bumps affected resource versions)."""
        self.writes_applied += 1
        self.site.store.put(collection, doc_id, data, at=at)

    def update(
        self,
        collection: str,
        doc_id: str,
        changes: Mapping[str, Any],
        at: float,
    ) -> None:
        """Merge changes into a document."""
        self.writes_applied += 1
        self.site.store.update(collection, doc_id, changes, at=at)

    def _on_change(self, event: ChangeEvent) -> None:
        """Resolve the change to its affected set — the one derivation —
        bump each key once and drop its renditions in the same step (so
        present means current), then hand the set to the observers."""
        affected = self.versions.dependents_of(event.key)
        affected |= self._matcher.affected_resources(event)
        for resource_key in sorted(affected):
            self.versions.bump(resource_key, event.at)
            self._renditions.pop(resource_key, None)
        keys = frozenset(affected)
        for observer in self.change_observers:
            observer(keys, event.at)

    # -- read path -------------------------------------------------------------

    def version_key_for(self, url: URL, user_id: Optional[str] = None) -> str:
        """The key under which ``url``'s ground-truth version is tracked.

        Segment variants of a resource share one version history: their
        bodies differ per segment, but they change at the same instants
        (whenever the underlying documents change). User-personalized
        renderings get a per-user history, because each user's variant
        changes when *that user's* documents change.
        """
        memo_key = (url.cache_key, user_id)
        version_key = self._version_keys.get(memo_key)
        if version_key is None:
            base = url.without_param(SEGMENT_PARAM)
            if user_id is not None:
                base = base.with_param("__user", user_id)
            version_key = self._version_keys[memo_key] = base.cache_key
        return version_key

    def handle(self, request: Request, now: float) -> Response:
        """Serve one request at simulated time ``now``."""
        self.requests_served += 1
        if request.method is not Method.GET:
            if request.url.path == TXN_VALIDATE_PATH:
                return self._handle_txn_validate(request, now)
            return self._handle_write_request(request, now)
        matched = self.site.match(request.url)
        if matched is None:
            return self._error(Status.NOT_FOUND, request.url, now)
        spec, params = matched
        return self._render(spec, params, request, now)

    def _handle_txn_validate(self, request: Request, now: float) -> Response:
        """Optimistic validation for serializable read transactions.

        The body carries ``{"keys": {version_key: version}}``; the reply
        reports, against the ground-truth histories at instant ``now``,
        which of those versions are no longer current.  A transaction
        whose ``mismatched`` list is empty is serializable at
        ``validated_at``: all its reads coexist at that origin instant.
        """
        keys = {}
        if isinstance(request.body, Mapping):
            candidate = request.body.get("keys")
            if isinstance(candidate, Mapping):
                keys = candidate
        self.txn_validations += 1
        current: Dict[str, Optional[int]] = {}
        mismatched: List[str] = []
        for version_key in sorted(keys):
            version = keys[version_key]
            try:
                live = self.versions.current(version_key)
            except KeyError:
                live = None
            current[version_key] = live
            if live != version:
                mismatched.append(version_key)
        body = {
            "validated_at": now,
            "current": current,
            "mismatched": mismatched,
        }
        # Small, deterministic wire size: the reply is a version vector,
        # not a rendered resource.
        size = 64 + 24 * len(keys)
        return Response(
            status=Status.OK,
            headers=Headers(
                {
                    "Cache-Control": "no-store",
                    "Content-Length": str(size),
                }
            ),
            body=json.dumps(body),
            url=request.url,
            generated_at=now,
            served_by="origin",
        )

    def _handle_write_request(self, request: Request, now: float) -> Response:
        """``/api/documents/{collection}/{id}``: POST/PUT replace the
        document, DELETE removes it."""
        parts = request.url.path.strip("/").split("/")
        if (
            len(parts) != 4
            or parts[0] != "api"
            or parts[1] != "documents"
        ):
            return self._error(Status.BAD_REQUEST, request.url, now)
        collection, doc_id = parts[2], parts[3]
        if request.method is Method.DELETE:
            self.writes_applied += 1
            self.site.store.delete(collection, doc_id, at=now)
        elif isinstance(request.body, Mapping):
            self.write(collection, doc_id, request.body, at=now)
        else:
            return self._error(Status.BAD_REQUEST, request.url, now)
        return Response(
            status=Status.OK,
            headers=Headers({"Cache-Control": "no-store"}),
            url=request.url,
            generated_at=now,
            served_by="origin",
        )

    def _render(
        self,
        spec: ResourceSpec,
        params: Dict[str, str],
        request: Request,
        now: float,
    ) -> Response:
        # Read once per header map: a logged-in user's client hands its
        # one map to every request, and a map is never edited.
        headers = request.headers
        facts = headers._derived
        if facts is None:
            facts = headers._derived = _request_facts(headers)
        user_id, validators = facts
        segment = None
        for name, value in request.url.query:
            if name == SEGMENT_PARAM:
                segment = value
        renders_user_content = (
            spec.personalization is PersonalizationKind.USER
            and user_id is not None
        )
        # A segment-personalized page requested WITH an identity but
        # WITHOUT a segment parameter must be personalized from the
        # session — making the response user-specific and uncacheable.
        # This is exactly the classic-CDN dilemma Speed Kit's segment
        # rewriting avoids.
        personalizes_from_identity = (
            spec.personalization is PersonalizationKind.SEGMENT
            and user_id is not None
            and segment is None
        )
        personalized_for_user = (
            renders_user_content or personalizes_from_identity
        )

        render_user = user_id if renders_user_content else None
        version_key = self.version_key_for(request.url, render_user)
        rendition = self._renditions.get(version_key, {}).get(segment)
        if rendition is not None:
            reads = rendition.reads
        else:
            reads = self._resolve_reads(
                spec, params, version_key, render_user, now
            )
        # A hit and a build owe the storage engine the same access; they
        # differ only in whether the body below is materialised.
        fetched = self._fetch(spec, reads)
        if fetched is None:
            return self._error(Status.NOT_FOUND, request.url, now)
        if rendition is None:
            version = self.versions.current(version_key)
            rendition = Rendition(
                reads=reads,
                version=version,
                body=self._render_body(
                    spec, params, reads, fetched, render_user, segment
                ),
                etag=f'"{version_key}:v{version}"',
                born=str(self.versions.born_at(version_key, version)),
            )
            self._renditions.setdefault(version_key, {})[segment] = rendition

        # Asked per response: an adaptive policy answers from the write
        # history seen so far, which moves while the rendition lives, and
        # the answer depends on whether *this* request carried an
        # identity. One prebuilt response is kept per identity flag and
        # replaced when the answer moves.
        cache_control = self.ttl_policy.cache_control(
            spec, request.url, personalized_for_user
        ).serialize()
        prebuilt = rendition._prebuilt.get(personalized_for_user)
        if prebuilt is None or prebuilt.cache_control != cache_control:
            prebuilt = self._prebuild(
                spec, version_key, rendition, personalized_for_user, cache_control
            )
        response = prebuilt.ok.answering(request.url, now)
        for observer in self.serve_observers:
            observer(version_key, request.url.cache_key, response, now)
        # ``revalidates``, on the validators read above.
        if rendition.etag in validators or "*" in validators:
            return prebuilt.not_modified.answering(request.url, now)
        return response

    def _prebuild(
        self,
        spec: ResourceSpec,
        version_key: str,
        rendition: Rendition,
        personalized_for_user: bool,
        cache_control: str,
    ) -> Prebuilt:
        """Build and keep the rendition's responses under
        ``cache_control``, in place of those for its previous answer."""
        ok = Response(
            status=Status.OK,
            headers=Headers(
                {
                    "ETag": rendition.etag,
                    "Cache-Control": cache_control or "no-store",
                    "Content-Length": str(spec.size_bytes),
                    "X-Resource-Kind": spec.kind.value,
                    # Lets the coherence checker map any response copy
                    # back to its ground-truth version history.
                    "X-Version-Key": version_key,
                    # Birth instant of this exact version — snapshot-cut
                    # certification intersects these across a read set.
                    "X-Version-Born": rendition.born,
                }
            ),
            body=rendition.body,
            version=rendition.version,
            served_by="origin",
        )
        prebuilt = Prebuilt(cache_control, ok, make_not_modified(ok, at=0.0))
        rendition._prebuilt[personalized_for_user] = prebuilt
        return prebuilt

    def _user_doc_keys(self, spec: ResourceSpec, user_id: str) -> list:
        """Per-user documents a USER-personalized resource depends on."""
        return [f"carts/{user_id}", f"profiles/{user_id}"]

    def _resolve_reads(
        self,
        spec: ResourceSpec,
        params: Dict[str, str],
        version_key: str,
        render_user: Optional[str],
        now: float,
    ) -> EngineReads:
        """Register a variant's version history, dependencies and query,
        and resolve which engine reads each of its responses performs."""
        self.versions.register(version_key, at=now)
        doc_keys = spec.resolve_doc_keys(params)
        user_keys = (
            self._user_doc_keys(spec, render_user)
            if render_user is not None
            else []
        )
        for doc_key in doc_keys + user_keys:
            self.versions.depend(version_key, doc_key)
        query = spec.resolve_query(params)
        if query is not None:
            self._matcher.subscribe(version_key, query)
        if spec.kind is ResourceKind.QUERY and query is not None:
            return EngineReads((), (), query)
        return EngineReads(tuple(doc_keys), tuple(user_keys), None)

    def _fetch(self, spec: ResourceSpec, reads: EngineReads):
        """Perform one response's engine access through the store.

        Returns the scan of a QUERY resource, else the stored documents
        in read order (``None`` where absent); ``None`` maps to 404 and
        ends the access at the missing document. The origin store may
        be a charged engine (batched, remote, write-behind), so this
        runs for every response — only the copies are skipped.
        """
        store = self.site.store
        if reads.scan is not None:
            return store.scan_stored(reads.scan.collection)
        must_exist = spec.kind in (
            ResourceKind.PAGE,
            ResourceKind.API,
            ResourceKind.STATIC,
        )
        stored = store.stored
        fetched: List[Optional[Document]] = []
        for key in reads.doc_keys:
            doc = stored(key)
            if doc is None and must_exist:
                return None
            fetched.append(doc)
        for key in reads.user_keys:
            fetched.append(stored(key))
        return fetched

    def _render_body(
        self,
        spec: ResourceSpec,
        params: Dict[str, str],
        reads: EngineReads,
        fetched,
        render_user: Optional[str],
        segment: Optional[str],
    ) -> str:
        """Serialise what :meth:`_fetch` read (read-only: no copies)."""
        if reads.scan is not None:
            payload = {
                "query": reads.scan.key(),
                "results": [
                    {"id": doc.doc_id, **doc.data}
                    for doc in self.site.store.select(reads.scan, fetched)
                ],
                "segment": segment,
            }
            return json.dumps(payload, default=str)

        n_docs = len(reads.doc_keys)
        docs = [doc for doc in fetched[:n_docs] if doc is not None]
        payload = {
            "resource": spec.name,
            "params": params,
            "docs": {doc.key: doc.data for doc in docs},
            "versions": {doc.key: doc.version for doc in docs},
        }
        if segment is not None:
            payload["segment"] = segment
        if render_user is not None:
            cart, profile = fetched[n_docs:]
            payload["user"] = render_user
            payload["cart"] = cart.data if cart else {}
            payload["profile"] = profile.data if profile else {}
        return json.dumps(payload, default=str)

    def _error(self, status: Status, url: URL, now: float) -> Response:
        return Response(
            status=status,
            headers=Headers({"Cache-Control": "no-store"}),
            url=url,
            generated_at=now,
            served_by="origin",
        )
