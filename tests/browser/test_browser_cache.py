"""Tests for the browser's private cache node."""

import pytest

from repro.browser import BrowserCache
from repro.http import Headers, Request, Response, Status, URL


def response(cache_control, size=100):
    return Response(
        status=Status.OK,
        headers=Headers(
            {
                "Cache-Control": cache_control,
                "Content-Length": str(size),
                "ETag": '"v1"',
            }
        ),
        url=URL.of("/r"),
        version=1,
        generated_at=0.0,
    )


def get():
    return Request.get(URL.of("/r"))


def test_private_responses_are_stored():
    cache = BrowserCache("b")
    cache.admit(get(), response("private, max-age=60"), now=0.0)
    assert cache.serve(get(), now=1.0) is not None


def test_uses_max_age_not_s_maxage():
    cache = BrowserCache("b")
    cache.admit(get(), response("max-age=10, s-maxage=1000"), now=0.0)
    assert cache.serve(get(), now=5.0) is not None
    assert cache.serve(get(), now=50.0) is None


def test_not_shared():
    assert not BrowserCache("b").shared


def test_byte_bound_applies():
    cache = BrowserCache("b", max_bytes=250)
    for index in range(3):
        url = URL.of(f"/r{index}")
        cache.admit(
            Request.get(url),
            Response(
                status=Status.OK,
                headers=Headers(
                    {
                        "Cache-Control": "max-age=60",
                        "Content-Length": "100",
                    }
                ),
                url=url,
                version=1,
                generated_at=0.0,
            ),
            now=float(index),
        )
    assert cache.store.backend.bytes_used <= 250


def test_metric_scope_is_browser():
    """A private cache counts per tier: its name (a device, a user)
    never reaches a metric name."""
    cache = BrowserCache("device-1")
    assert cache.counted("hit") == 0.0
    assert cache.metrics.counter_names() == []  # a read creates nothing
    cache.serve(get(), now=0.0)  # miss
    assert cache.metrics.counter_names() == ["browser.miss"]
    assert cache.metrics.counter("browser.miss").value == 1


def test_serve_even_stale_returns_expired_entries():
    cache = BrowserCache("b")
    cache.admit(get(), response("max-age=5"), now=0.0)
    assert cache.serve(get(), now=100.0) is None
    stale = cache.serve_even_stale(get().url.cache_key, now=100.0)
    assert stale is not None
    assert stale.version == 1
