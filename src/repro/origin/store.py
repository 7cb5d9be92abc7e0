"""Versioned document store with change notification.

The store is the paper's "polyglot backend" reduced to semantics:
documents live in named collections, every write bumps a per-document
version, and registered listeners observe each change — the origin
server, which resolves it to the resources it affects.

Documents are held by a pluggable :mod:`repro.storage` engine keyed
``collection/doc_id`` (default: the in-memory engine), so the origin
tier participates in the polyglot backend axis: a sharded engine
models a partitioned store, and the simulated remote engine charges
per-operation latency that the transport layer folds into origin
response times.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from types import MethodType
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.origin.query import Query
from repro.storage.backend import CacheBackend, InMemoryBackend


def _copy_data(value: Any) -> Any:
    """Deep-copy JSON-like document data without ``copy.deepcopy``.

    Documents hold plain JSON-shaped values (dicts, lists, scalars).
    ``copy.deepcopy``'s generic memo machinery is a measurable share of
    origin read cost; this recursion handles the JSON shapes directly
    and falls back to ``deepcopy`` only for exotic values.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {key: _copy_data(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_data(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_copy_data(item) for item in value)
    return copy.deepcopy(value)


@dataclass(frozen=True)
class Document:
    """An immutable snapshot of one stored document."""

    collection: str
    doc_id: str
    data: Mapping[str, Any]
    version: int
    updated_at: float
    #: Filled by :func:`repro.gdpr.matching.identity_text` on the first
    #: GDPR visit; a write stores a new ``Document``.
    _identity_text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def key(self) -> str:
        return f"{self.collection}/{self.doc_id}"


@dataclass(frozen=True)
class ChangeEvent:
    """Emitted to listeners after every successful write or delete."""

    collection: str
    doc_id: str
    before: Optional[Document]
    after: Optional[Document]
    at: float

    @property
    def key(self) -> str:
        return f"{self.collection}/{self.doc_id}"


ChangeListener = Callable[[ChangeEvent], None]


class VersionConflict(Exception):
    """Raised by conditional writes whose expected version is stale."""

    def __init__(
        self, collection: str, doc_id: str, expected: int, actual: int
    ) -> None:
        super().__init__(
            f"{collection}/{doc_id}: expected version {expected}, "
            f"found {actual}"
        )
        self.collection = collection
        self.doc_id = doc_id
        self.expected = expected
        self.actual = actual


class DocumentStore:
    """Collections of versioned documents.

    Reads return immutable :class:`Document` snapshots with deep-copied
    data, so callers can never corrupt stored state. Versions start at 1
    and increase by 1 per write to the same document id.

    The one exception is the *stored view* — :meth:`stored`,
    :meth:`scan_stored` and :meth:`select` — which performs the same
    engine access as :meth:`get` / :meth:`find` but hands back the
    stored documents themselves, uncopied. It exists for the origin's
    renderer, which only serialises what it reads; a caller of the
    stored view must never mutate ``.data``.
    """

    def __init__(self, backend: Optional[CacheBackend] = None) -> None:
        self._backend = backend if backend is not None else InMemoryBackend()
        self._listeners: List[ChangeListener] = []

    @staticmethod
    def _key(collection: str, doc_id: str) -> str:
        return f"{collection}/{doc_id}"

    @property
    def backend(self) -> CacheBackend:
        return self._backend

    def drain_latency(self, concurrent: float = 0.0) -> float:
        """Simulated backend latency accrued since the last drain.

        ``concurrent`` is network transit paid at the same drain point;
        overlap-capable engines clip the pool against it.
        """
        return self._backend.drain_latency(concurrent)

    def subscribe(self, listener: ChangeListener) -> None:
        """Register a listener called synchronously after each change.

        A bound method is held weakly. Its object — the origin server —
        reaches this store back through the site it serves, so a strong
        reference here would close a cycle and keep a finished world
        alive until a full collection. Its owner keeps the object
        alive; once the object is gone, its listener is skipped.
        """
        if isinstance(listener, MethodType):
            listener = weakref.WeakMethod(listener)
        self._listeners.append(listener)

    def _emit(self, event: ChangeEvent) -> None:
        for listener in self._listeners:
            if type(listener) is weakref.WeakMethod:
                listener = listener()
                if listener is None:
                    continue
            listener(event)

    # -- writes ------------------------------------------------------------

    def put(
        self,
        collection: str,
        doc_id: str,
        data: Mapping[str, Any],
        at: float = 0.0,
    ) -> Document:
        """Insert or fully replace a document; returns the new snapshot."""
        key = self._key(collection, doc_id)
        before = self._backend.peek(key)
        version = 1 if before is None else before.version + 1
        after = Document(
            collection=collection,
            doc_id=doc_id,
            data=_copy_data(dict(data)),
            version=version,
            updated_at=at,
        )
        self._backend.put(key, after)
        self._emit(
            ChangeEvent(
                collection=collection,
                doc_id=doc_id,
                before=before,
                after=after,
                at=at,
            )
        )
        return after

    def update(
        self,
        collection: str,
        doc_id: str,
        changes: Mapping[str, Any],
        at: float = 0.0,
    ) -> Document:
        """Merge ``changes`` into an existing document."""
        current = self.get(collection, doc_id)
        if current is None:
            raise KeyError(f"no document {collection}/{doc_id}")
        merged = dict(current.data)
        merged.update(changes)
        return self.put(collection, doc_id, merged, at=at)

    def put_if_version(
        self,
        collection: str,
        doc_id: str,
        data: Mapping[str, Any],
        expected_version: int,
        at: float = 0.0,
    ) -> Document:
        """Optimistic concurrency: replace iff the stored version is
        ``expected_version``.

        ``expected_version=0`` means "must not exist yet" (insert-only).
        Raises :class:`VersionConflict` on a lost race — the caller
        re-reads and retries, exactly as against the real Orestes API.
        """
        current = self._backend.peek(self._key(collection, doc_id))
        actual = current.version if current is not None else 0
        if actual != expected_version:
            raise VersionConflict(
                collection, doc_id, expected_version, actual
            )
        return self.put(collection, doc_id, data, at=at)

    def delete(self, collection: str, doc_id: str, at: float = 0.0) -> None:
        """Remove a document; no-op if absent."""
        before = self._backend.remove(self._key(collection, doc_id))
        if before is None:
            return
        self._emit(
            ChangeEvent(
                collection=collection,
                doc_id=doc_id,
                before=before,
                after=None,
                at=at,
            )
        )

    # -- reads -------------------------------------------------------------

    @staticmethod
    def _snapshot(doc: Document) -> Document:
        # Data is deep-copied on write; snapshots themselves are frozen,
        # but nested mutables inside .data must not alias stored state.
        return Document(
            collection=doc.collection,
            doc_id=doc.doc_id,
            data=_copy_data(dict(doc.data)),
            version=doc.version,
            updated_at=doc.updated_at,
        )

    def stored(self, collection: str, doc_id: str) -> Optional[Document]:
        """Stored view of :meth:`get`: one engine read, no copy."""
        return self._backend.get(self._key(collection, doc_id))

    def get(self, collection: str, doc_id: str) -> Optional[Document]:
        doc = self.stored(collection, doc_id)
        if doc is None:
            return None
        return self._snapshot(doc)

    def scan_stored(self, collection: str) -> Iterator[Tuple[str, Document]]:
        """Stored view of a collection: one engine prefix scan.

        Every engine charges a scan when it is *called*, not as it is
        consumed, so a caller that only owes the engine the access may
        drop the iterator unread.
        """
        return self._backend.scan(f"{collection}/")

    @staticmethod
    def select(
        query: Query, scanned: Iterable[Tuple[str, Document]]
    ) -> List[Document]:
        """Filter, order and limit scanned ``(key, document)`` pairs."""
        results = [
            doc
            for _, doc in sorted(scanned, key=lambda item: item[0])
            if query.matches(doc.collection, doc.data)
        ]
        if query.order_by is not None:
            order_by = query.order_by
            results.sort(
                key=lambda d: (d.data.get(order_by) is None, d.data.get(order_by)),
                reverse=query.descending,
            )
        if query.limit is not None:
            results = results[: query.limit]
        return results
