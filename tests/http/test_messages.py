"""Tests for request/response messages and validators."""

from dataclasses import replace

import pytest

from repro.http import (
    FrozenHeadersError,
    Headers,
    Method,
    Request,
    Response,
    Status,
    URL,
    make_not_modified,
    revalidates,
)


def make_response(etag="v1", cache_control="max-age=60", version=1):
    """``etag=None`` builds the response without a validator."""
    headers = {"Cache-Control": cache_control}
    if etag is not None:
        headers["ETag"] = etag
    headers = Headers(headers)
    return Response(
        status=Status.OK,
        headers=headers,
        body="<html>",
        url=URL.of("/p"),
        version=version,
        generated_at=10.0,
    )


class TestRequest:
    def test_get_factory(self):
        req = Request.get(URL.of("/p"))
        assert req.method is Method.GET
        assert req.method.is_safe

    def test_unsafe_methods(self):
        assert not Method.POST.is_safe
        assert not Method.PUT.is_safe
        assert not Method.DELETE.is_safe

    def test_with_header_does_not_mutate_original(self):
        req = Request.get(URL.of("/p"))
        conditional = req.with_header("If-None-Match", "v1")
        assert conditional.if_none_match == "v1"
        assert req.if_none_match is None

    def test_copy_shares_a_map_nobody_can_edit(self):
        """Was ``test_copy_has_independent_headers``: a hop's copy is a
        request of its own (its ``trace`` is its to rebind) around the
        same header map."""
        req = Request.get(URL.of("/p"), headers=Headers({"A": "1"}))
        clone = req.copy()
        assert clone is not req and clone.headers is req.headers
        for edit in (
            lambda h: h.__setitem__("A", "2"),
            lambda h: h.__delitem__("A"),
            lambda h: h.pop("A"),
            lambda h: h.update({"B": "2"}),
            lambda h: h.setdefault("B", "2"),
        ):
            with pytest.raises(FrozenHeadersError):
                edit(clone.headers)
        assert req.headers == {"A": "1"}
        clone.trace = "hop"
        assert req.trace is None

    def test_with_header_derives_a_new_map(self):
        headers = Headers({"A": "1", "B": "2"})
        req = Request.get(URL.of("/p"), headers=headers)
        derived = req.with_header("C", "3")
        assert derived.headers == {"A": "1", "B": "2", "C": "3"}
        assert req.headers is headers and headers == {"A": "1", "B": "2"}


class TestResponse:
    def test_properties(self):
        resp = make_response()
        assert resp.etag == "v1"
        assert resp.cache_control.max_age == 60.0

    def test_served_shares_a_map_nobody_can_edit(self):
        """Was ``test_copy_has_independent_headers``: there is no
        ``Response.copy``; a serving is a new shell around the same
        header map, body and facts."""
        resp = make_response()
        shell = resp.served("edge-1")
        assert shell is not resp and shell.headers is resp.headers
        assert (shell.served_by, resp.served_by) == ("edge-1", "origin")
        assert shell == replace(resp, served_by="edge-1")
        assert shell.cache_control is resp.cache_control
        for edit in (
            lambda h: h.__setitem__("Age", "5"),
            lambda h: h.__delitem__("ETag"),
            lambda h: h.pop("ETag"),
            lambda h: h.update({"Age": "5"}),
            lambda h: h.setdefault("Age", "5"),
        ):
            with pytest.raises(FrozenHeadersError):
                edit(shell.headers)
        assert "Age" not in resp.headers and resp.etag == "v1"
        assert not hasattr(resp, "copy")

    def test_facts_are_read_once_from_the_map(self):
        resp = Response(
            status=Status.OK,
            headers=Headers(
                {
                    "cache-control": "max-age=5",
                    "ETAG": "e",
                    "content-length": "7",
                    "x-resource-kind": "page",
                    "X-Version-Key": "pages/1",
                }
            ),
        )
        assert resp.cache_control.max_age == 5.0
        assert (resp.etag, resp.content_length) == ("e", 7)
        assert (resp.kind, resp.version_key) == ("page", "pages/1")
        assert resp.degraded is None
        bare = Response(status=Status.OK)
        assert bare.cache_control.max_age is None
        assert (bare.etag, bare.content_length, bare.kind) == (None,) * 3
        assert (bare.version_key, bare.degraded) == (None, None)
        # A variant re-reads them from the map it is given.
        other = replace(resp, headers=resp.headers.with_item("ETag", "f"))
        assert (other.etag, resp.etag) == ("f", "e")


class TestRevalidation:
    def test_matching_etag_revalidates(self):
        stored = make_response(etag="v1")
        req = Request.get(URL.of("/p")).with_header("If-None-Match", "v1")
        assert revalidates(req, stored)

    def test_mismatched_etag_does_not(self):
        stored = make_response(etag="v2")
        req = Request.get(URL.of("/p")).with_header("If-None-Match", "v1")
        assert not revalidates(req, stored)

    def test_no_validator_does_not(self):
        stored = make_response(etag="v1")
        assert not revalidates(Request.get(URL.of("/p")), stored)

    def test_etag_list_matches_any(self):
        stored = make_response(etag="v2")
        req = Request.get(URL.of("/p")).with_header("If-None-Match", "v1, v2")
        assert revalidates(req, stored)

    def test_star_matches_everything(self):
        stored = make_response(etag="anything")
        req = Request.get(URL.of("/p")).with_header("If-None-Match", "*")
        assert revalidates(req, stored)

    def test_stored_without_etag_never_revalidates(self):
        stored = make_response(etag=None)
        req = Request.get(URL.of("/p")).with_header("If-None-Match", "v1")
        assert not revalidates(req, stored)


class TestNotModified:
    def test_304_carries_validators_and_freshness(self):
        stored = make_response(etag="v7", cache_control="max-age=99")
        nm = make_not_modified(stored, at=50.0)
        assert nm.status == Status.NOT_MODIFIED
        assert nm.etag == "v7"
        assert nm.headers["Cache-Control"] == "max-age=99"
        assert nm.generated_at == 50.0
        assert nm.version == stored.version

    def test_304_without_etag(self):
        stored = make_response(etag=None)
        nm = make_not_modified(stored, at=1.0)
        assert nm.etag is None
