"""Observability: request-path tracing, metrics, and exporters.

``repro.obs`` is the zero-dependency observability subsystem.  It has
three parts:

* a span-based :class:`Tracer` that threads a trace context through
  the full request path (service worker -> transport -> PoP/CDN tiers
  -> origin) recording per-hop sim-clock timings, cache verdicts,
  versions served, and fault events;
* the :class:`MetricRegistry` (the one registry, of
  :mod:`repro.sim.metrics`): exact tallies, and histograms that keep
  every observation and answer p50/p95/p99 exactly;
* exporters: a JSONL trace dump (:func:`dump_jsonl`) and per-tier
  latency attribution for the harness report
  (:mod:`repro.obs.analysis`).

Tracing is off-by-default-cheap: every instrumented component holds a
:data:`NOOP_TRACER` whose ``start``/``finish`` are constant-time
no-ops returning the shared :data:`NULL_SPAN`, so the untraced hot
path pays only an attribute lookup.  The :class:`RecordingTracer`
assigns trace/span ids from monotonic counters in execution order and
timestamps from the sim clock, so traces are deterministic per seed
and diffable across runs.
"""

from repro.obs.analysis import (
    critical_path_attribution,
    overload_accounting,
    pageview_attributions,
    reads_from_trace,
    response_attrs,
    tier_breakdown,
    txns_from_trace,
)
from repro.obs.export import (
    dump_jsonl,
    load_jsonl,
    merge_span_records,
    span_records,
)
from repro.obs.span import NULL_SPAN, Span, SpanContext
from repro.obs.tracer import NOOP_TRACER, RecordingTracer, Tracer
from repro.sim.metrics import MetricRegistry

__all__ = [
    "NOOP_TRACER",
    "NULL_SPAN",
    "MetricRegistry",
    "RecordingTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "critical_path_attribution",
    "dump_jsonl",
    "load_jsonl",
    "merge_span_records",
    "overload_accounting",
    "pageview_attributions",
    "reads_from_trace",
    "response_attrs",
    "span_records",
    "tier_breakdown",
    "txns_from_trace",
]
