"""HTTP model: the vocabulary the caching stack speaks.

This package models the slice of HTTP that web caching depends on:
case-insensitive headers, ``Cache-Control`` directives, request and
response messages with validators (``ETag`` / ``Last-Modified``), the
RFC 7234 freshness lifetime computation, a structured URL type, and
the degraded-response contract (:mod:`repro.http.degraded`).

It deliberately models *semantics*, not wire format: there is no byte
parsing, because the simulator constructs messages directly.
"""

from repro.http.cache_control import CacheControl
from repro.http.degraded import Degraded, mark, reason_in_attrs, reason_of
from repro.http.freshness import (
    age_at,
    conditional_request_for,
    freshness_lifetime,
    is_cacheable,
    is_fresh_at,
)
from repro.http.headers import FrozenHeadersError, Headers
from repro.http.messages import (
    CREDENTIAL_HEADERS,
    Method,
    Request,
    Response,
    Status,
    make_not_modified,
    revalidates,
)
from repro.http.url import URL

__all__ = [
    "CREDENTIAL_HEADERS",
    "CacheControl",
    "Degraded",
    "FrozenHeadersError",
    "Headers",
    "Method",
    "Request",
    "Response",
    "Status",
    "URL",
    "age_at",
    "conditional_request_for",
    "freshness_lifetime",
    "is_cacheable",
    "is_fresh_at",
    "make_not_modified",
    "mark",
    "reason_in_attrs",
    "reason_of",
    "revalidates",
]
