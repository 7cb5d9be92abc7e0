"""Tests for RFC 7234-style freshness computation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.http import (
    Headers,
    Request,
    Response,
    Status,
    URL,
    age_at,
    conditional_request_for,
    freshness_lifetime,
    is_cacheable,
    is_fresh_at,
)


def response(cache_control=None, status=Status.OK, generated_at=100.0, etag=None):
    headers = {}
    if cache_control is not None:
        headers["Cache-Control"] = cache_control
    if etag is not None:
        headers["ETag"] = etag
    return Response(
        status=status,
        headers=Headers(headers),
        url=URL.of("/r"),
        generated_at=generated_at,
    )


class TestCacheability:
    def test_plain_max_age_is_cacheable_everywhere(self):
        resp = response("max-age=60")
        assert is_cacheable(resp, shared=True)
        assert is_cacheable(resp, shared=False)

    def test_no_store_is_never_cacheable(self):
        resp = response("no-store, max-age=60")
        assert not is_cacheable(resp, shared=True)
        assert not is_cacheable(resp, shared=False)

    def test_private_only_cacheable_in_private_caches(self):
        resp = response("private, max-age=60")
        assert not is_cacheable(resp, shared=True)
        assert is_cacheable(resp, shared=False)

    def test_s_maxage_only_enables_shared_caching(self):
        resp = response("s-maxage=60")
        assert is_cacheable(resp, shared=True)
        assert not is_cacheable(resp, shared=False)

    def test_without_lifetime_not_cacheable(self):
        assert not is_cacheable(response(None), shared=True)
        assert not is_cacheable(response("public"), shared=True)

    def test_zero_max_age_not_cacheable(self):
        assert not is_cacheable(response("max-age=0"), shared=False)

    def test_error_statuses_not_cacheable(self):
        resp = response("max-age=60", status=Status.NOT_FOUND)
        assert not is_cacheable(resp, shared=True)


class TestFreshness:
    def test_age_accumulates(self):
        resp = response("max-age=60", generated_at=100.0)
        assert age_at(resp, 100.0) == 0.0
        assert age_at(resp, 130.0) == 30.0

    def test_age_never_negative(self):
        resp = response("max-age=60", generated_at=100.0)
        assert age_at(resp, 90.0) == 0.0

    def test_fresh_until_lifetime(self):
        resp = response("max-age=60", generated_at=100.0)
        assert is_fresh_at(resp, 159.9, shared=False)
        assert not is_fresh_at(resp, 160.0, shared=False)

    def test_shared_cache_uses_s_maxage(self):
        resp = response("max-age=10, s-maxage=100", generated_at=0.0)
        assert is_fresh_at(resp, 50.0, shared=True)
        assert not is_fresh_at(resp, 50.0, shared=False)

    def test_no_cache_is_never_fresh(self):
        resp = response("no-cache, max-age=60", generated_at=0.0)
        assert not is_fresh_at(resp, 1.0, shared=False)

    def test_immutable_is_always_fresh(self):
        resp = response("immutable, max-age=1", generated_at=0.0)
        assert is_fresh_at(resp, 10**9, shared=False)

    def test_lifetime_defaults_to_zero(self):
        assert freshness_lifetime(response(None), shared=True) == 0.0

    @given(
        max_age=st.floats(min_value=0.1, max_value=10**6),
        elapsed=st.floats(min_value=0.0, max_value=2 * 10**6),
    )
    def test_fresh_iff_age_below_lifetime(self, max_age, elapsed):
        resp = response(f"max-age={max_age}", generated_at=0.0)
        assert is_fresh_at(resp, elapsed, shared=False) == (elapsed < max_age)


class TestConditionalRequest:
    def test_adds_if_none_match(self):
        stored = response("max-age=60", etag='"abc"')
        req = conditional_request_for(Request.get(URL.of("/r")), stored)
        assert req.if_none_match == '"abc"'

    def test_without_etag_returns_plain_copy(self):
        stored = response("max-age=60")
        original = Request.get(URL.of("/r"))
        req = conditional_request_for(original, stored)
        assert req.if_none_match is None
        assert req is not original
