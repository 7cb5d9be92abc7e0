"""Tests for the client read decision procedure."""

import pytest

from repro.coherence import ReadDecision, decide
from repro.http import Headers, Response, Status, URL
from repro.sketch import BloomFilter
from repro.sketch.cache_sketch import ClientCacheSketch


def cached(ttl=60.0, etag='"v1"', generated_at=0.0):
    headers = {"Cache-Control": f"max-age={ttl}"}
    if etag is not None:
        headers["ETag"] = etag
    return Response(
        status=Status.OK,
        headers=Headers(headers),
        url=URL.of("/r"),
        version=1,
        generated_at=generated_at,
    )


def sketch_with(*keys, generated_at=0.0):
    bf = BloomFilter(bits=1024, hashes=3)
    for key in keys:
        bf.add(key)
    return ClientCacheSketch(filter=bf, generated_at=generated_at)


KEY = "shop.example/r"


class TestDecide:
    def test_no_copy_fetches(self):
        assert decide(KEY, None, sketch_with(), 0.0) is ReadDecision.FETCH

    def test_fresh_unflagged_serves(self):
        decision = decide(KEY, cached(), sketch_with(), now=10.0)
        assert decision is ReadDecision.SERVE_FROM_CACHE

    def test_fresh_but_flagged_revalidates(self):
        decision = decide(KEY, cached(), sketch_with(KEY), now=10.0)
        assert decision is ReadDecision.REVALIDATE

    def test_flagged_without_etag_fetches(self):
        decision = decide(KEY, cached(etag=None), sketch_with(KEY), now=10.0)
        assert decision is ReadDecision.FETCH

    def test_expired_revalidates_regardless_of_sketch(self):
        decision = decide(KEY, cached(ttl=5.0), sketch_with(), now=10.0)
        assert decision is ReadDecision.REVALIDATE

    def test_expired_without_etag_fetches(self):
        decision = decide(
            KEY, cached(ttl=5.0, etag=None), sketch_with(), now=10.0
        )
        assert decision is ReadDecision.FETCH

    def test_no_sketch_serves_fresh_copy(self):
        # Without a sketch the client degrades to a plain browser cache.
        decision = decide(KEY, cached(), None, now=10.0)
        assert decision is ReadDecision.SERVE_FROM_CACHE

    def test_other_keys_in_sketch_do_not_affect_us(self):
        decision = decide(
            KEY, cached(), sketch_with("some/other/key"), now=10.0
        )
        assert decision is ReadDecision.SERVE_FROM_CACHE
