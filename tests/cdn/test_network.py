"""Tests for the multi-PoP CDN."""

import pytest

from repro.cdn import Cdn
from repro.http import Headers, Request, Response, Status, URL


def ok_response(url="/p"):
    return Response(
        status=Status.OK,
        headers=Headers(
            {"Cache-Control": "public, max-age=60", "ETag": '"v1"'}
        ),
        body="x",
        url=URL.parse(url),
        version=1,
        generated_at=0.0,
    )


def get(url="/p"):
    return Request.get(URL.parse(url))


@pytest.fixture
def cdn():
    return Cdn(["pop-eu", "pop-us"])


def test_needs_at_least_one_pop():
    with pytest.raises(ValueError):
        Cdn([])


def test_pops_are_independent(cdn):
    cdn.pop("pop-eu").admit(get(), ok_response(), now=0.0)
    assert cdn.pop("pop-eu").serve(get(), now=1.0) is not None
    assert cdn.pop("pop-us").serve(get(), now=1.0) is None


def test_unknown_pop_raises(cdn):
    with pytest.raises(KeyError):
        cdn.pop("pop-mars")


def test_purge_fans_out(cdn):
    for name in ("pop-eu", "pop-us"):
        cdn.pop(name).admit(get(), ok_response(), now=0.0)
    affected = cdn.purge_many([get().url.cache_key])
    assert affected == 2
    assert cdn.pop("pop-eu").serve(get(), now=1.0) is None
    assert cdn.pop("pop-us").serve(get(), now=1.0) is None


def test_purge_many_counts_totals(cdn):
    cdn.pop("pop-eu").admit(get("/a"), ok_response("/a"), now=0.0)
    cdn.pop("pop-us").admit(get("/b"), ok_response("/b"), now=0.0)
    keys = [get("/a").url.cache_key, get("/b").url.cache_key]
    assert cdn.purge_many(keys) == 2


def test_purge_many_counts_one_request_per_key(cdn):
    cdn.pop("pop-eu").admit(get("/a"), ok_response("/a"), now=0.0)
    keys = [get(url).url.cache_key for url in ("/a", "/ghost", "/b")]
    assert cdn.purge_many(keys) == 1
    assert cdn.metrics.counter("cdn.purge_requests").value == 3
    assert cdn.purge_many(keys) == 0
    assert cdn.metrics.counter("cdn.purge_requests").value == 6


def test_purge_many_attaches_per_pop_counts_to_the_span(cdn):
    class Span:
        def set(self, **fields):
            self.fields = fields

    cdn.pop("pop-eu").admit(get("/a"), ok_response("/a"), now=0.0)
    cdn.pop("pop-eu").admit(get("/b"), ok_response("/b"), now=0.0)
    cdn.pop("pop-us").admit(get("/b"), ok_response("/b"), now=0.0)
    span = Span()
    keys = [get("/a").url.cache_key, get("/b").url.cache_key]
    assert cdn.purge_many(keys, span=span) == 3
    assert span.fields == {
        "purged": 3,
        "per_pop": {"pop-eu": 2, "pop-us": 1},
    }
