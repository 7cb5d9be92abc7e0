"""Tracers: the no-op default and the deterministic recorder.

The base :class:`Tracer` *is* the no-op implementation — ``start``
returns the shared :data:`~repro.obs.span.NULL_SPAN` and ``finish``
does nothing — so a component may instrument unconditionally and still
be correct when tracing is off. The request path does better: each hop
tests ``tracer.enabled`` and, when it is false, calls neither method
and builds none of their arguments (DESIGN, *Cost model*).

:class:`RecordingTracer` assigns trace and span ids from monotonic
counters in execution order.  Because the simulation itself is
deterministic per seed (the event queue breaks ties by schedule
sequence and all randomness flows through named RNG streams), ids and
timestamps are reproducible run-to-run, which is what makes golden
traces diffable.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from repro.obs.span import NULL_SPAN, Span, SpanContext

__all__ = ["NOOP_TRACER", "RecordingTracer", "Tracer"]

ParentLike = Union[Span, SpanContext, None]


class Tracer:
    """No-op tracer: constant-time start/finish, records nothing."""

    enabled = False

    def start(
        self,
        name: str,
        at: float,
        parent: ParentLike = None,
        node: Optional[str] = None,
        tier: Optional[str] = None,
        **attrs: Any,
    ):
        return NULL_SPAN

    def finish(self, span, at: float) -> None:
        return None


class RecordingTracer(Tracer):
    """Tracer that records every span with deterministic ids."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_trace = 1
        self._next_span = 1

    def start(
        self,
        name: str,
        at: float,
        parent: ParentLike = None,
        node: Optional[str] = None,
        tier: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        parent_ctx: Optional[SpanContext]
        if isinstance(parent, Span):
            parent_ctx = parent.context
        else:
            parent_ctx = parent
        if parent_ctx is not None:
            trace_id = parent_ctx.trace_id
            parent_id: Optional[int] = parent_ctx.span_id
        else:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        span_id = self._next_span
        self._next_span += 1
        span = Span(
            SpanContext(trace_id, span_id),
            name,
            at,
            node=node,
            tier=tier,
            attrs=attrs or None,
            parent_id=parent_id,
        )
        self.spans.append(span)
        return span

    def finish(self, span, at: float) -> None:
        span.finish(at)


#: Shared disabled tracer; components default to this instance.
NOOP_TRACER = Tracer()
