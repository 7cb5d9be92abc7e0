"""Unit tests for spans, tracers, and the JSONL exporters."""

import pytest

from repro.obs import (
    NOOP_TRACER,
    NULL_SPAN,
    RecordingTracer,
    SpanContext,
    Tracer,
    dump_jsonl,
    load_jsonl,
    span_records,
)

from tests.obs.golden import diff_traces, normalize_for_golden


class TestNoopTracer:
    def test_start_returns_the_shared_null_span(self):
        span = NOOP_TRACER.start("sw", 1.0, node="u1", tier="sw")
        assert span is NULL_SPAN
        assert span.context is None

    def test_null_span_mutators_are_inert(self):
        NULL_SPAN.set(verdict="hit")
        NULL_SPAN.event("retry", at=2.0)
        NULL_SPAN.finish(3.0)
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []

    def test_disabled_flag(self):
        assert NOOP_TRACER.enabled is False
        assert Tracer().enabled is False
        assert RecordingTracer().enabled is True


class TestRecordingTracer:
    def test_ids_are_deterministic_and_monotonic(self):
        tracer = RecordingTracer()
        a = tracer.start("pageview", 0.0)
        b = tracer.start("request", 0.1, parent=a)
        c = tracer.start("pageview", 0.2)
        assert (a.context.trace_id, a.context.span_id) == (1, 1)
        assert (b.context.trace_id, b.context.span_id) == (1, 2)
        assert (c.context.trace_id, c.context.span_id) == (2, 3)

    def test_parent_accepts_span_or_context(self):
        tracer = RecordingTracer()
        root = tracer.start("pageview", 0.0)
        via_span = tracer.start("a", 0.0, parent=root)
        via_ctx = tracer.start("b", 0.0, parent=root.context)
        assert via_span.parent_id == root.context.span_id
        assert via_ctx.parent_id == root.context.span_id
        assert via_ctx.context.trace_id == root.context.trace_id

    def test_none_parent_starts_a_fresh_trace(self):
        tracer = RecordingTracer()
        first = tracer.start("a", 0.0)
        second = tracer.start("b", 0.0, parent=None)
        assert first.context.trace_id != second.context.trace_id

    def test_finish_sets_the_end(self):
        tracer = RecordingTracer()
        span = tracer.start("origin", 1.5)
        assert span.end is None  # unfinished
        tracer.finish(span, 2.25)
        assert span.end == 2.25

    def test_attrs_and_events_round_trip_to_record(self):
        tracer = RecordingTracer()
        root = tracer.start("transport", 1.0, node="u1", tier="network")
        span = tracer.start(
            "edge", 1.0, parent=root, node="edge-1", tier="edge"
        )
        span.set(verdict="hit", version=3)
        span.event("not-modified", at=1.2, status=304)
        tracer.finish(span, 1.5)
        record = span.to_record()
        assert record["trace"] == root.context.trace_id
        assert record["span"] == span.context.span_id
        assert record["parent"] == root.context.span_id
        assert record["name"] == "edge"
        assert record["node"] == "edge-1"
        assert record["tier"] == "edge"
        assert record["attrs"] == {"verdict": "hit", "version": 3}
        assert "_parent" not in record["attrs"]
        assert record["events"] == [
            {"name": "not-modified", "at": 1.2, "status": 304}
        ]

    def test_span_context_is_hashable_and_frozen(self):
        ctx = SpanContext(1, 2)
        assert ctx == SpanContext(1, 2)
        assert hash(ctx) == hash(SpanContext(1, 2))
        with pytest.raises(AttributeError):
            ctx.trace_id = 5


class TestExport:
    def _sample(self):
        tracer = RecordingTracer()
        root = tracer.start("pageview", 0.0, node="u1", tier="client")
        child = tracer.start(
            "request", 0.0, parent=root, node="u1", tier="client"
        )
        tracer.finish(child, 0.123456789)
        tracer.finish(root, 0.2)
        return tracer

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = self._sample()
        path = tmp_path / "trace.jsonl"
        n = dump_jsonl(tracer.spans, path)
        assert n == 2
        loaded = load_jsonl(path)
        assert loaded == span_records(tracer.spans)

    def test_normalize_rounds_floats(self):
        tracer = self._sample()
        normalized = normalize_for_golden(tracer.spans, digits=6)
        assert normalized[1]["end"] == 0.123457

    def test_diff_accepts_timing_jitter_within_tolerance(self):
        tracer = self._sample()
        golden = normalize_for_golden(tracer.spans)
        tracer.spans[1].end += 5e-5
        assert diff_traces(tracer.spans, golden, tolerance=1e-4) == []

    def test_diff_flags_timing_drift(self):
        tracer = self._sample()
        golden = normalize_for_golden(tracer.spans)
        tracer.spans[1].end += 0.5
        problems = diff_traces(tracer.spans, golden, tolerance=1e-4)
        assert problems and "end" in problems[0]

    def test_diff_flags_structural_changes_exactly(self):
        tracer = self._sample()
        golden = normalize_for_golden(tracer.spans)
        tracer.spans[1].attrs["verdict"] = "miss"
        problems = diff_traces(tracer.spans, golden)
        assert any("verdict" in p for p in problems)

    def test_diff_flags_span_count_mismatch(self):
        tracer = self._sample()
        golden = normalize_for_golden(tracer.spans)
        problems = diff_traces(tracer.spans[:1], golden)
        assert any("span count" in p for p in problems)
