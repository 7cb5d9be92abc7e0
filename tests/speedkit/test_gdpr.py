"""Tests for the GDPR layer: vault, consent, scrubbing."""

import pytest

from repro.http import Headers, Request, URL
from repro.speedkit import ConsentManager, PiiVault, Purpose, RequestScrubber


class TestPiiVault:
    def test_identity_lifecycle(self):
        assert not PiiVault().has_identity
        vault = PiiVault(user_id="u42")
        assert vault.has_identity
        assert vault.identity_for_first_party() == "u42"

    def test_clear_identity_erases_everything(self):
        vault = PiiVault(user_id="u42", attributes={"tier": "gold"})
        vault.clear_identity()
        assert not vault.has_identity
        assert vault.attributes_for_segmentation() == {}

    def test_segmentation_view_is_a_copy(self):
        vault = PiiVault(attributes={"tier": "gold"})
        view = vault.attributes_for_segmentation()
        view["tier"] = "hacked"
        assert vault.attributes_for_segmentation() == {"tier": "gold"}


class TestConsentManager:
    def test_default_denies(self):
        consent = ConsentManager()
        assert not consent.allows(Purpose.ACCELERATION)

    def test_grant(self):
        consent = ConsentManager()
        consent.grant(Purpose.ACCELERATION)
        assert consent.allows(Purpose.ACCELERATION)
        assert consent.changes == [(Purpose.ACCELERATION, True)]

    def test_factories(self):
        assert ConsentManager.all_granted().allows(Purpose.SEGMENTATION)
        assert not ConsentManager.none_granted().allows(
            Purpose.SEGMENTATION
        )


class TestRequestScrubber:
    def scrub(self, headers=None, params=None):
        scrubber = RequestScrubber()
        request = Request.get(
            URL.of("/p", params or {}), headers=Headers(headers or {})
        )
        return scrubber.scrub(request)

    def test_cookie_header_removed(self):
        cleaned, report = self.scrub(headers={"Cookie": "session=u42"})
        assert "Cookie" not in cleaned.headers
        assert report.removed_headers == ("Cookie",)

    def test_authorization_removed_case_insensitive(self):
        cleaned, report = self.scrub(headers={"AUTHORIZATION": "Bearer x"})
        assert len(cleaned.headers) == 0

    def test_benign_headers_survive(self):
        cleaned, report = self.scrub(headers={"Accept": "text/html"})
        assert cleaned.headers["Accept"] == "text/html"
        assert not report.anything_removed

    def test_identifying_params_removed(self):
        cleaned, report = self.scrub(params={"userid": "42", "color": "red"})
        assert cleaned.url.params == {"color": "red"}
        assert report.removed_params == ("userid",)

    def test_email_value_detected_anywhere(self):
        cleaned, report = self.scrub(params={"q": "jane@example.com"})
        assert "q" not in cleaned.url.params

    def test_opaque_token_value_detected(self):
        token = "a" * 40
        cleaned, report = self.scrub(headers={"X-Custom": token})
        assert "X-Custom" not in cleaned.headers

    def test_short_values_are_not_tokens(self):
        cleaned, report = self.scrub(params={"q": "shoes"})
        assert cleaned.url.params == {"q": "shoes"}

    def test_original_request_is_untouched(self):
        scrubber = RequestScrubber()
        request = Request.get(
            URL.of("/p", {"session": "x"}),
            headers=Headers({"Cookie": "session=u42"}),
        )
        scrubber.scrub(request)
        assert request.headers["Cookie"] == "session=u42"
        assert request.url.params == {"session": "x"}

    def test_audit_log_accumulates(self, make_worker, env):
        """The audit lives in the registry: the worker counts each
        request the scrubber removed something from, and the scrubber
        keeps nothing per request."""
        from tests.speedkit.conftest import run

        worker = make_worker()
        scrubber = worker.scrubber
        before = dict(vars(scrubber))
        for headers in ({}, {"Cookie": "s=1"}, {"Accept": "*/*"}):
            request = Request.get(
                URL.parse("/static/app.js"), headers=Headers(headers)
            )
            run(env, worker.fetch(request))
        counted = worker.metrics.counter
        assert counted("speedkit.accelerated").value == 3
        assert counted("speedkit.scrubbed").value == 1
        assert vars(scrubber).keys() == before.keys()

    def test_one_map_is_scrubbed_once(self, monkeypatch):
        """Requests sharing a header map (the cookie jar's) share the
        cleaned twin and the report; URL params are judged per request."""
        scrubber = RequestScrubber()
        jar = Headers({"Cookie": "session=u42", "Accept": "*/*"})
        calls = []
        judge = scrubber.looks_identifying
        monkeypatch.setattr(
            scrubber,
            "looks_identifying",
            lambda value: calls.append(value) or judge(value),
        )
        first, report = scrubber.scrub(Request.get(URL.of("/a"), headers=jar))
        second, again = scrubber.scrub(
            Request.get(URL.of("/b", {"userid": "7", "q": "x"}), headers=jar)
        )
        assert calls == ["*/*", "x"]  # the map once, the params per request
        assert first is not second
        assert first.headers is second.headers
        assert list(first.headers.items()) == [("Accept", "*/*")]
        assert report.removed_headers == again.removed_headers == ("Cookie",)
        assert (report.removed_params, again.removed_params) == ((), ("userid",))
        third, clean = scrubber.scrub(
            Request.get(URL.of("/c"), headers=Headers({"Accept": "*/*"}))
        )
        assert not clean.anything_removed
        assert list(third.headers.items()) == [("Accept", "*/*")]

    def test_custom_denylists(self):
        scrubber = RequestScrubber(
            header_denylist=("x-tracking",), param_denylist=("ref",)
        )
        request = Request.get(
            URL.of("/p", {"ref": "mail"}),
            headers=Headers({"X-Tracking": "1", "Cookie": "s=1"}),
        )
        cleaned, report = scrubber.scrub(request)
        # Cookie survives (not on the custom list, not an opaque token).
        assert "Cookie" in cleaned.headers
        assert "X-Tracking" not in cleaned.headers
        assert "ref" not in cleaned.url.params


def scrub_by_copy_then_delete(scrubber, request):
    """The scrubber before it built the kept headers directly (and
    before its early return): copy everything, then delete."""
    removed_headers, removed_params = [], []
    # A plain dict stands in for the copy: a header map is never
    # edited, and ``Request.copy`` shares the request's.
    headers = dict(request.headers.items())
    for name in list(headers):
        value = headers[name]
        if name.lower() in scrubber.header_denylist or (
            scrubber.looks_identifying(value)
        ):
            del headers[name]
            removed_headers.append(name)
    url = request.url
    for key, value in request.url.params.items():
        if key.lower() in scrubber.param_denylist or (
            scrubber.looks_identifying(value)
        ):
            url = url.without_param(key)
            removed_params.append(key)
    return Headers(headers), url, removed_headers, removed_params


@pytest.mark.parametrize(
    "headers,params",
    [
        ({}, {}),
        ({"Cookie": "session=u42"}, {}),
        ({"cOOkie": "session=u42", "Accept": "text/html"}, {}),
        ({"Accept": "text/html", "X-B": "2", "X-A": "1"}, {"color": "red"}),
        ({"X-Custom": "a" * 40, "Accept-Language": "de"}, {"q": "shoes"}),
        ({}, {"userid": "42", "q": "jane@example.com", "page": "2"}),
        (
            {"Authorization": "Bearer x", "If-None-Match": '"v1"'},
            {"SID": "1", "sort": "price"},
        ),
    ],
)
def test_scrub_equals_copy_then_delete(headers, params):
    scrubber = RequestScrubber()
    request = Request.get(
        URL.of("/p", params),
        headers=Headers(headers),
        body="payload",
        client_id="u42",
    )
    kept, url, removed_headers, removed_params = scrub_by_copy_then_delete(
        scrubber, request
    )
    cleaned, report = scrubber.scrub(request)
    # A request of its own (the worker rebinds its url and trace); with
    # no header to remove it carries the same, uneditable, map.
    assert cleaned is not request
    assert (cleaned.headers is request.headers) == (not removed_headers)
    assert list(cleaned.headers.items()) == list(kept.items())
    assert cleaned.url == url
    assert (cleaned.method, cleaned.body, cleaned.client_id) == (
        request.method,
        "payload",
        "u42",
    )
    assert report.removed_headers == tuple(removed_headers)
    assert report.removed_params == tuple(removed_params)
    assert list(request.headers.items()) == list(Headers(headers).items())
