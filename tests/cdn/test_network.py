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
    affected = cdn.purge(get().url.cache_key())
    assert affected == 2
    assert cdn.pop("pop-eu").serve(get(), now=1.0) is None
    assert cdn.pop("pop-us").serve(get(), now=1.0) is None


def test_purge_many_counts_totals(cdn):
    cdn.pop("pop-eu").admit(get("/a"), ok_response("/a"), now=0.0)
    cdn.pop("pop-us").admit(get("/b"), ok_response("/b"), now=0.0)
    keys = [get("/a").url.cache_key(), get("/b").url.cache_key()]
    assert cdn.purge_many(keys) == 2


def test_purge_prefix_fans_out(cdn):
    cdn.pop("pop-eu").admit(get("/a/1"), ok_response("/a/1"), now=0.0)
    cdn.pop("pop-us").admit(get("/a/2"), ok_response("/a/2"), now=0.0)
    assert cdn.purge_prefix("shop.example/a/") == 2


def test_purge_all(cdn):
    cdn.pop("pop-eu").admit(get(), ok_response(), now=0.0)
    cdn.purge_all()
    assert [pop.store.keys() for pop in cdn.pops.values()] == [[], []]


def test_overall_hit_ratio(cdn):
    pop = cdn.pop("pop-eu")
    pop.serve(get(), now=0.0)  # miss
    pop.admit(get(), ok_response(), now=0.0)
    pop.serve(get(), now=1.0)  # hit
    assert cdn.overall_hit_ratio() == pytest.approx(0.5)


def test_overall_hit_ratio_empty_is_zero(cdn):
    assert cdn.overall_hit_ratio() == 0.0
    # ... and asking created nothing: no edge.<pop>.hit/.miss at zero.
    assert cdn.metrics.counter_names() == []
