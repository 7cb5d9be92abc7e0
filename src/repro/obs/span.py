"""Spans and trace contexts.

A :class:`Span` is one timed hop of a request path (a service-worker
decision, a transport exchange, an edge lookup, an origin round trip,
a purge, a replica delivery).  Spans carry:

* a :class:`SpanContext` — ``(trace_id, span_id)`` — that components
  thread through the stack (on ``Request.trace``) so children can
  link to their parent without any global "current span" state, which
  would leak across interleaved simulation processes;
* sim-clock ``start``/``end`` timestamps;
* free-form ``attrs`` (cache verdict, version served, wave/slot, ...);
* point-in-time ``events`` (retry, breaker-open, lost-response, ...).

:data:`NULL_SPAN` is the shared no-op span returned by the disabled
tracer: every mutator is a constant-time no-op and its context is
``None``, so untraced code pays nothing and propagates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["NULL_SPAN", "Span", "SpanContext"]


@dataclass(frozen=True)
class SpanContext:
    """Immutable identity of a span, safe to hand to child hops."""

    trace_id: int
    span_id: int


class Span:
    """A single recorded hop with timings, attributes, and events."""

    __slots__ = ("context", "name", "node", "tier", "start", "end", "attrs", "events")

    def __init__(
        self,
        context: SpanContext,
        name: str,
        start: float,
        node: Optional[str] = None,
        tier: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> None:
        self.context = context
        self.name = name
        self.node = node
        self.tier = tier
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        if parent_id is not None:
            self.attrs["_parent"] = parent_id
        self.events: List[Tuple[str, Optional[float], Dict[str, Any]]] = []

    @property
    def parent_id(self) -> Optional[int]:
        return self.attrs.get("_parent")

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, at: Optional[float] = None, **attrs: Any) -> None:
        """Record a point-in-time event on this span."""
        self.events.append((name, at, attrs))

    def finish(self, at: float) -> None:
        self.end = at

    def to_record(self) -> Dict[str, Any]:
        """Flatten to a JSON-serializable dict (one JSONL line)."""
        attrs = {k: v for k, v in self.attrs.items() if k != "_parent"}
        record: Dict[str, Any] = {
            "trace": self.context.trace_id,
            "span": self.context.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "tier": self.tier,
            "start": self.start,
            "end": self.end,
            "attrs": attrs,
        }
        if self.events:
            record["events"] = [
                {"name": name, "at": at, **evattrs} for name, at, evattrs in self.events
            ]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.context.trace_id}, "
            f"span={self.context.span_id}, start={self.start}, end={self.end})"
        )


class _NullSpan:
    """Shared inert span: all mutators are no-ops, context is None.

    Returned by the no-op tracer so instrumentation sites never need
    an ``if tracing`` branch; ``request.trace = span.context`` simply
    propagates ``None``.
    """

    __slots__ = ()

    context = None
    name = "null"
    node = None
    tier = None
    start = 0.0
    end = 0.0
    attrs: Dict[str, Any] = {}
    events: List[Tuple[str, Optional[float], Dict[str, Any]]] = []
    parent_id = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, at: Optional[float] = None, **attrs: Any) -> None:
        return None

    def finish(self, at: float) -> None:
        return None

    def to_record(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The shared no-op span instance.
NULL_SPAN = _NullSpan()
