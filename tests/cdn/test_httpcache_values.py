"""Messages are values: a state machine over one caching node.

Whatever sequence of admissions, servings, refreshes, marks and purges
a node goes through, every response it was ever given or ever handed
out still reads exactly as it did at that moment. The reference is a
dict of snapshots; the node under test shares one header map between a
stored entry and all of its servings, so an edit anywhere — a ``mark``
that stamps its argument, a ``refresh`` that restamps the stored map, a
serving that writes ``served_by`` onto the entry — shows up here as a
snapshot that no longer matches.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cdn import CacheStore
from repro.cdn.httpcache import HttpCache
from repro.http import (
    URL,
    Degraded,
    Headers,
    Request,
    Response,
    Status,
    make_not_modified,
    mark,
    reason_of,
)

PATHS = ("/a", "/b", "/c")
NODE = "node-under-test"


def snapshot(response):
    """Everything a reader can see of ``response``, by value."""
    return (
        response.status,
        tuple(response.headers.items()),
        response.body,
        response.url,
        response.version,
        response.served_by,
        response.generated_at,
        response.cache_control,
        response.etag,
        response.content_length,
        response.kind,
        response.version_key,
        response.degraded,
    )


def request_for(path):
    return Request.get(URL.parse(path))


class CacheNodeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.version = 0
        #: cache key -> the response the node stored under it.
        self.stored = {}
        #: every response the node was given or handed out, with how
        #: it read at that moment.
        self.seen = []

    @initialize(shared=st.booleans())
    def build(self, shared):
        self.cache = HttpCache(NODE, CacheStore(shared=shared))

    def _witness(self, response):
        self.seen.append((response, snapshot(response)))

    def _served(self, path, response):
        """Checks one serving of ``path`` against its stored entry."""
        entry = self.stored[request_for(path).url.cache_key()]
        assert response is not entry
        assert response.headers is entry.headers
        assert response.body is entry.body
        assert response.cache_control is entry.cache_control
        assert response.served_by == NODE != entry.served_by
        self._witness(response)

    # -- rules ----------------------------------------------------------

    @rule(step=st.floats(0.0, 40.0))
    def wait(self, step):
        self.now += step

    @rule(
        path=st.sampled_from(PATHS),
        ttl=st.sampled_from((0, 5, 60)),
        private=st.booleans(),
        etag=st.booleans(),
        upstream=st.sampled_from(("origin", "edge-9")),
    )
    def admit(self, path, ttl, private, etag, upstream):
        self.version += 1
        headers = {
            "Cache-Control": f"{'private' if private else 'public'}, max-age={ttl}",
            "Content-Length": "10",
            "X-Resource-Kind": "page",
            "X-Version-Key": f"pages{path}",
        }
        if etag:
            headers["ETag"] = f'"v{self.version}"'
        request = request_for(path)
        response = Response(
            status=Status.OK,
            headers=Headers(headers),
            body=f"body-{self.version}",
            url=request.url,
            version=self.version,
            served_by=upstream,
            generated_at=self.now,
        )
        self._witness(response)
        assert self.cache.admit(request, response, self.now) is response
        entry = self.cache.store.peek(request.url.cache_key())
        if entry is not None and entry.response is response:
            self.stored[request.url.cache_key()] = response

    @rule(path=st.sampled_from(PATHS))
    def serve(self, path):
        response = self.cache.serve(request_for(path), self.now)
        if response is not None:
            self._served(path, response)

    @rule(path=st.sampled_from(PATHS))
    def serve_many(self, path):
        requests = [request_for(path), request_for(PATHS[0])]
        for request, response in zip(
            requests, self.cache.serve_many(requests, self.now)
        ):
            if response is not None:
                self._served(request.url.path, response)

    @rule(path=st.sampled_from(PATHS))
    def serve_even_stale(self, path):
        response = self.cache.serve_even_stale(request_for(path), self.now)
        key = request_for(path).url.cache_key()
        assert (response is None) == (key not in self.stored)
        if response is not None:
            self._served(path, response)

    @rule(path=st.sampled_from(PATHS), grace=st.sampled_from((0.0, 30.0, 1e9)))
    def serve_stale_if_error(self, path, grace):
        response = self.cache.serve_stale_if_error(
            request_for(path), self.now, grace
        )
        if response is not None:
            entry = self.stored[request_for(path).url.cache_key()]
            assert reason_of(response) is Degraded.STALE_IF_ERROR
            assert reason_of(entry) is None
            assert response.headers is not entry.headers
            assert response.served_by == NODE
            self._witness(response)

    @rule(
        path=st.sampled_from(PATHS),
        cache_control=st.sampled_from((None, "public, max-age=90")),
    )
    def refresh(self, path, cache_control):
        request = request_for(path)
        key = request.url.cache_key()
        before = self.stored.get(key)
        not_modified = Response(
            status=Status.NOT_MODIFIED,
            headers=Headers(
                {"Cache-Control": cache_control} if cache_control else {}
            ),
            url=request.url,
            generated_at=self.now,
        )
        response = self.cache.refresh(request, not_modified, self.now)
        assert (response is None) == (before is None)
        if response is None:
            return
        after = self.cache.store.peek(key).response
        assert after is not before
        assert after.generated_at == self.now
        assert after.body is before.body
        if cache_control is None:
            assert after.headers is before.headers
        else:
            assert after.headers["Cache-Control"] == cache_control
        self.stored[key] = after
        self._witness(after)
        self._served(path, response)

    @precondition(lambda self: self.seen)
    @rule(
        pick=st.integers(min_value=0),
        reason=st.sampled_from(list(Degraded)),
    )
    def mark_something_seen(self, pick, reason):
        response, _ = self.seen[pick % len(self.seen)]
        marked = mark(response, reason, "x")
        assert marked is not response
        assert marked.headers is not response.headers
        assert reason_of(marked) is not None
        self._witness(marked)

    @precondition(lambda self: self.seen)
    @rule(pick=st.integers(min_value=0))
    def conditional_answer(self, pick):
        """A 304 built from a seen response reads, and edits, nothing
        of it."""
        response, _ = self.seen[pick % len(self.seen)]
        self._witness(make_not_modified(response, at=self.now))

    @rule(path=st.sampled_from(PATHS))
    def purge(self, path):
        key = request_for(path).url.cache_key()
        assert self.cache.purge_many([key]) == (key in self.stored)
        self.stored.pop(key, None)

    # -- the property ----------------------------------------------------

    @invariant()
    def every_response_reads_as_it_did(self):
        for response, taken in self.seen:
            assert snapshot(response) == taken

    @invariant()
    def the_store_holds_exactly_what_it_was_given(self):
        assert sorted(self.cache.store.keys()) == sorted(self.stored)
        for key, response in self.stored.items():
            assert self.cache.store.peek(key).response is response


TestCacheNodeValues = CacheNodeMachine.TestCase
TestCacheNodeValues.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
