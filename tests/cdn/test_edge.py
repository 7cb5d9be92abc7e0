"""Tests for edge PoP semantics."""

from dataclasses import replace

import pytest

from repro.cdn import CacheStore, EdgeCache
from repro.http import (
    Degraded,
    FrozenHeadersError,
    Headers,
    Request,
    Response,
    Status,
    URL,
    make_not_modified,
    reason_of,
)


def edge(name="pop-1"):
    return EdgeCache(name, CacheStore(shared=True))


def ok_response(url="/p", ttl=60, version=1, private=False, etag=True):
    directives = f"max-age={ttl}"
    if private:
        directives = f"private, {directives}"
    else:
        directives = f"public, {directives}"
    headers = {"Cache-Control": directives, "Content-Length": "1000"}
    if etag:
        headers["ETag"] = f'"v{version}"'
    return Response(
        status=Status.OK,
        headers=Headers(headers),
        body=f"body-v{version}",
        url=URL.parse(url),
        version=version,
        generated_at=0.0,
    )


def get(url="/p"):
    return Request.get(URL.parse(url))


class TestServe:
    def test_miss_then_hit(self):
        pop = edge()
        assert pop.serve(get(), now=0.0) is None
        pop.admit(get(), ok_response(), now=0.0)
        served = pop.serve(get(), now=1.0)
        assert served is not None
        assert served.served_by == "pop-1"
        assert served.version == 1

    def test_served_response_cannot_be_edited(self):
        """Was ``test_served_copy_is_isolated``: a serving is no longer
        a private copy whose edits stay out of the store, it is the
        stored header map itself — which nobody can edit."""
        pop = edge()
        pop.admit(get(), ok_response(), now=0.0)
        served = pop.serve(get(), now=1.0)
        with pytest.raises(FrozenHeadersError):
            served.headers["X-Mutated"] = "yes"
        again = pop.serve(get(), now=2.0)
        assert again.headers is served.headers
        assert again is not served
        assert "X-Mutated" not in again.headers

    def test_expired_entry_is_a_miss(self):
        pop = edge()
        pop.admit(get(), ok_response(ttl=10), now=0.0)
        assert pop.serve(get(), now=20.0) is None

    def test_requires_shared_store(self):
        with pytest.raises(ValueError):
            EdgeCache("bad", CacheStore(shared=False))

    def test_a_counter_exists_from_its_first_count_not_before(self):
        """Counters are reached through handles resolved on first use;
        a counter that exists shows in every exported snapshot, so none
        may be created before its event has happened."""
        pop = edge()
        assert pop.metrics.snapshot() == {}
        # Reading is not counting: a count asked of an idle PoP must
        # not add its hit/miss counters to the export at zero.
        assert pop.counted("hit") == pop.counted("miss") == 0.0
        assert pop.metrics.counter_names() == []
        pop.serve(get(), now=0.0)
        assert pop.counted("hit") == 0.0
        assert pop.metrics.snapshot() == {"edge.pop-1.miss": 1}
        pop.admit(get(), ok_response(), now=0.0)
        pop.serve(get(), now=1.0)
        pop.serve(get(), now=2.0)
        assert pop.metrics.snapshot() == {
            "edge.pop-1.miss": 1,
            "edge.pop-1.fill": 1,
            "edge.pop-1.hit": 2,
        }
        # The handle and the registry name are one counter.
        pop.metrics.counter("edge.pop-1.hit").inc(5)
        pop.serve(get(), now=3.0)
        assert pop.metrics.counter("edge.pop-1.hit").value == 8
        assert pop.purge_many([get().url.cache_key, "ghost"]) == 1
        assert pop.metrics.snapshot()["edge.pop-1.purge"] == 1


class TestAdmission:
    def test_private_response_not_stored(self):
        pop = edge()
        pop.admit(get(), ok_response(private=True), now=0.0)
        assert pop.serve(get(), now=0.5) is None

    def test_error_response_not_stored(self):
        pop = edge()
        error = replace(ok_response(), status=Status.INTERNAL_ERROR)
        pop.admit(get(), error, now=0.0)
        assert pop.serve(get(), now=0.5) is None

    def test_admit_returns_what_it_stored_and_it_cannot_be_edited(self):
        """Was ``test_admit_returns_forwardable_copy``: the caller and
        the store hold the one response, safe because it is a value."""
        pop = edge()
        original = ok_response()
        forwarded = pop.admit(get(), original, now=0.0)
        assert forwarded is original
        assert pop.store.peek(get().url.cache_key).response is original
        with pytest.raises(FrozenHeadersError):
            forwarded.headers["X-Hop"] = "edge"
        assert "X-Hop" not in pop.serve(get(), now=1.0).headers


class TestRevalidation:
    def test_revalidation_base_for_stale_entry(self):
        pop = edge()
        pop.admit(get(), ok_response(ttl=10), now=0.0)
        base = pop.revalidation_base(get(), now=20.0)
        assert base is not None
        assert base.etag == '"v1"'

    def test_no_base_without_entry(self):
        assert edge().revalidation_base(get(), now=0.0) is None

    def test_no_base_without_etag(self):
        pop = edge()
        pop.admit(get(), ok_response(etag=False), now=0.0)
        assert pop.revalidation_base(get(), now=100.0) is None

    def test_refresh_restamps_entry(self):
        pop = edge()
        pop.admit(get(), ok_response(ttl=10), now=0.0)
        assert pop.serve(get(), now=15.0) is None  # stale now
        stale = pop.revalidation_base(get(), now=15.0)
        nm = make_not_modified(stale, at=15.0)
        refreshed = pop.refresh(get(), nm, now=15.0)
        assert refreshed.status == Status.OK
        assert refreshed.served_by == "pop-1"
        # Fresh again for another TTL window.
        assert pop.serve(get(), now=20.0) is not None
        assert pop.serve(get(), now=30.0) is None

    def test_refresh_rejects_non_304(self):
        pop = edge()
        with pytest.raises(ValueError):
            pop.refresh(get(), ok_response(), now=0.0)

    def test_refresh_when_entry_vanished_returns_none(self):
        pop = edge()
        pop.admit(get(), ok_response(), now=0.0)
        stale = pop.revalidation_base(get(), now=0.0)
        nm = make_not_modified(stale, at=5.0)
        pop.purge_many([get().url.cache_key])
        assert pop.refresh(get(), nm, now=5.0) is None


class TestStaleIfError:
    def stale(self, grace, now=500.0):
        pop = edge()
        pop.admit(get(), ok_response(ttl=10), now=100.0)
        return pop, pop.serve_stale_if_error(get(), now=now, grace=grace)

    def test_within_the_window_serves_a_marked_variant(self):
        pop, served = self.stale(grace=400.0)
        assert reason_of(served) is Degraded.STALE_IF_ERROR
        assert served.served_by == "pop-1" and served.version == 1
        # The stored response stays unmarked and servable.
        stored = pop.store.peek(get().url.cache_key).response
        assert reason_of(stored) is None and served.headers is not stored.headers
        assert pop.counted("stale_if_error") == 1

    def test_an_unbounded_window_is_a_callers_choice(self):
        assert self.stale(grace=float("inf"))[1] is not None

    @pytest.mark.parametrize(
        "grace", [float("nan"), -1.0, -float("inf"), 399.9]
    )
    def test_outside_the_window_fails_closed(self, grace):
        """NaN compares false with everything: ``age > nan`` used to
        let a copy of any age out under the bounded-stale mark."""
        pop, served = self.stale(grace=grace)
        assert served is None
        assert pop.counted("stale_if_error") == 0

    def test_a_nan_clock_or_a_copy_from_the_future_fails_closed(self):
        assert self.stale(grace=400.0, now=float("nan"))[1] is None
        assert self.stale(grace=400.0, now=50.0)[1] is None

    def test_nothing_stored_nothing_served(self):
        assert edge().serve_stale_if_error(get(), 1.0, 60.0) is None


class TestPurge:
    def test_purge_removes_entry(self):
        pop = edge()
        pop.admit(get(), ok_response(), now=0.0)
        assert pop.purge_many([get().url.cache_key]) == 1
        assert pop.serve(get(), now=0.5) is None

    def test_purge_missing_is_false(self):
        assert edge().purge_many(["ghost"]) == 0
