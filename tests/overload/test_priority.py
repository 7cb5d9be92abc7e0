"""Priority classification and the shed-order contract it encodes."""

import pytest

from repro.http.messages import CREDENTIAL_HEADERS, Headers, Method, Request
from repro.http.url import URL
from repro.overload.priority import (
    LOAD_SHED_HEADER,
    PriorityClass,
    classify_request,
)

pytestmark = pytest.mark.overload


def _get(headers=None):
    return Request.get(URL("/p/1"), headers=Headers(headers or {}))


class TestClassification:
    def test_plain_get_is_static(self):
        assert classify_request(_get()) is PriorityClass.STATIC

    @pytest.mark.parametrize("header", CREDENTIAL_HEADERS)
    def test_credentialed_get_is_personalized(self, header):
        request = _get({header: "u=42"})
        assert classify_request(request) is PriorityClass.PERSONALIZED

    def test_pass_header_match_is_case_insensitive(self):
        request = _get({"cookie": "u=42"})
        assert classify_request(request) is PriorityClass.PERSONALIZED

    @pytest.mark.parametrize(
        "method", [Method.POST, Method.PUT, Method.DELETE]
    )
    def test_every_non_get_is_control(self, method):
        request = Request(method=method, url=URL("/cart"))
        assert classify_request(request) is PriorityClass.CONTROL

    def test_credentialed_write_is_still_control(self):
        """Method outranks headers: a credentialed POST is control."""
        request = Request(
            method=Method.POST,
            url=URL("/cart"),
            headers=Headers({"Cookie": "u=42"}),
        )
        assert classify_request(request) is PriorityClass.CONTROL


class TestShedOrderContract:
    def test_rank_order_is_control_static_personalized(self):
        ranks = [
            PriorityClass.CONTROL.rank,
            PriorityClass.STATIC.rank,
            PriorityClass.PERSONALIZED.rank,
        ]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == 3

    def test_control_is_never_sheddable(self):
        assert not PriorityClass.CONTROL.sheddable
        assert PriorityClass.STATIC.sheddable
        assert PriorityClass.PERSONALIZED.sheddable

    def test_labels_are_stable_metric_suffixes(self):
        assert [cls.label for cls in PriorityClass] == [
            "control",
            "static",
            "personalized",
        ]

    def test_shed_header_name(self):
        assert LOAD_SHED_HEADER == "X-Load-Shed"
