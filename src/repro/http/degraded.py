"""The degraded-response contract: every mark and what it means.

An answer that is not a verified-fresh read says so with a response
header, and every tier treats a marked answer the same way. Producers
build the marked answer with :func:`mark` — a new response; the one it
was made from stays unmarked, so a cache that holds it keeps serving it
— and a response knows its reason from construction (:func:`reason_in`
over its header names, kept as ``Response.degraded``, which
:func:`reason_of` returns). Each rule is asked of that fact at one
place: never cached (``HttpCache.admit``), never 304-converted (the CDN
transport), which ledger and whether the Δ-checker judges it (the
runner's response classification), which span attribute
(``obs.analysis.response_attrs`` — read back offline through
:func:`reason_in_attrs`, so live and span-rebuilt verdicts consult the
same columns). DESIGN.md, *Degraded responses*, has the table.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Collection, Mapping, Optional

if TYPE_CHECKING:
    from repro.http.messages import Response

__all__ = ["Degraded", "mark", "reason_in", "reason_in_attrs", "reason_of"]


class Degraded(enum.Enum):
    """Why a response is not a verified-fresh read.

    A member's value is the verdict string spans carry. Members are
    declared most restrictive first, which is the precedence
    :func:`reason_of` applies to a response carrying several marks (a
    stale-if-error copy read by a transaction that then downgraded).
    """

    #: A placeholder synthesized for a request a governor refused.
    LOAD_SHED = ("load-shed", "X-Load-Shed", "shed", False, True, False)
    #: A cached copy served while the sketch or origin is unreachable;
    #: trades the Δ bound for availability.
    OFFLINE = ("offline", "X-SpeedKit-Offline", "offline", True, True, False)
    #: A copy verified within the grace window, served after a failed
    #: upstream fetch; judged under the bound widened by that window.
    STALE_IF_ERROR = (
        "stale-if-error", "X-Stale-If-Error", "degraded", True, True, True
    )
    #: An ordinary read of a transaction that achieved a lower level
    #: than requested (the header's value). The ``txn`` span records
    #: the downgrade, so its responses carry no attribute of their own.
    TXN_DOWNGRADE = (
        "txn-downgrade", "X-Txn-Degraded", None, True, False, True
    )

    #: The response header that carries the mark on the wire.
    header: str
    #: The boolean span attribute exported for a marked response.
    span_attr: Optional[str]
    #: Enters the serve ledgers (by layer and kind); an unserved answer
    #: is tallied as a shed response instead.
    served: bool
    #: The bytes are a fallback, not the tier's normal answer: tallied
    #: as a degraded serving (not a cache hit), and not goodput-clean.
    fallback: bool
    #: The Δ-checker judges it as a read.
    checked: bool

    def __new__(cls, verdict, header, span_attr, served, fallback, checked):
        member = object.__new__(cls)
        member._value_ = verdict
        member.header = header
        member.span_attr = span_attr
        member.served = served
        member.fallback = fallback
        member.checked = checked
        return member


_BY_PRECEDENCE = tuple(Degraded)
#: Header-map spelling of each mark, most restrictive first.
_BY_HEADER = {reason.header.lower(): reason for reason in Degraded}
_MARK_HEADERS = frozenset(_BY_HEADER)


def mark(
    response: "Response", reason: Degraded, value: str = "1"
) -> "Response":
    """``response`` degraded for ``reason``: a new response, marked.
    ``response`` itself is left as it was."""
    return replace(
        response, headers=response.headers.with_item(reason.header, value)
    )


def reason_in(header_names: Collection[str]) -> Optional[Degraded]:
    """The most restrictive mark among ``header_names`` (lower-case),
    or ``None`` — what a response is told about itself when built."""
    if _MARK_HEADERS.isdisjoint(header_names):
        return None  # the common case: no mark at all
    for header, reason in _BY_HEADER.items():
        if header in header_names:
            return reason
    return None


def reason_of(response: "Response") -> Optional[Degraded]:
    """The reason ``response`` is marked degraded, or ``None``."""
    return response.degraded


def reason_in_attrs(attrs: Mapping[str, Any]) -> Optional[Degraded]:
    """:func:`reason_of` for exported span attributes."""
    for reason in _BY_PRECEDENCE:
        if reason.span_attr is not None and attrs.get(reason.span_attr):
            return reason
    return None
