"""Property-based tests of the read decision procedure."""

from hypothesis import given
from hypothesis import strategies as st

from repro.coherence import ReadDecision, decide
from repro.http import Headers, Response, Status, URL
from repro.http.freshness import is_fresh_at
from repro.sketch import BloomFilter
from repro.sketch.cache_sketch import ClientCacheSketch

KEY = "shop.example/r"


def cached_response(ttl, generated_at, with_etag):
    headers = {"Cache-Control": f"max-age={ttl}"}
    if with_etag:
        headers["ETag"] = '"v1"'
    return Response(
        status=Status.OK,
        headers=Headers(headers),
        url=URL.of("/r"),
        version=1,
        generated_at=generated_at,
    )


def sketch_with_key(flagged):
    bf = BloomFilter(bits=512, hashes=3)
    if flagged:
        bf.add(KEY)
    return ClientCacheSketch(filter=bf, generated_at=0.0)


decision_inputs = st.tuples(
    st.booleans(),  # copy exists
    st.floats(1.0, 500.0),  # ttl
    st.floats(0.0, 1000.0),  # now (generated_at fixed at 0)
    st.booleans(),  # etag present
    st.booleans(),  # flagged in sketch
    st.booleans(),  # sketch available
)


@given(params=decision_inputs)
def test_never_serves_from_cache_when_flagged(params):
    has_copy, ttl, now, etag, flagged, has_sketch = params
    cached = cached_response(ttl, 0.0, etag) if has_copy else None
    sketch = sketch_with_key(flagged) if has_sketch else None
    decision = decide(KEY, cached, sketch, now)
    if has_sketch and flagged:
        assert decision is not ReadDecision.SERVE_FROM_CACHE


@given(params=decision_inputs)
def test_never_serves_expired_copies(params):
    has_copy, ttl, now, etag, flagged, has_sketch = params
    cached = cached_response(ttl, 0.0, etag) if has_copy else None
    sketch = sketch_with_key(flagged) if has_sketch else None
    decision = decide(KEY, cached, sketch, now)
    if decision is ReadDecision.SERVE_FROM_CACHE:
        assert cached is not None
        assert is_fresh_at(cached, now, shared=False)


@given(params=decision_inputs)
def test_revalidate_requires_an_etag(params):
    has_copy, ttl, now, etag, flagged, has_sketch = params
    cached = cached_response(ttl, 0.0, etag) if has_copy else None
    sketch = sketch_with_key(flagged) if has_sketch else None
    decision = decide(KEY, cached, sketch, now)
    if decision is ReadDecision.REVALIDATE:
        assert cached is not None and cached.etag is not None


@given(params=decision_inputs)
def test_no_copy_always_fetches(params):
    _, ttl, now, etag, flagged, has_sketch = params
    sketch = sketch_with_key(flagged) if has_sketch else None
    assert decide(KEY, None, sketch, now) is ReadDecision.FETCH


@given(params=decision_inputs)
def test_decision_is_deterministic(params):
    has_copy, ttl, now, etag, flagged, has_sketch = params
    cached = cached_response(ttl, 0.0, etag) if has_copy else None
    sketch = sketch_with_key(flagged) if has_sketch else None
    first = decide(KEY, cached, sketch, now)
    second = decide(KEY, cached, sketch, now)
    assert first is second
