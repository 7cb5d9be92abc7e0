"""Trace exporters: JSONL dump/load and golden-trace comparison.

The JSONL format is one span record per line, sorted keys, in span
*start* order (the order the :class:`~repro.obs.tracer.RecordingTracer`
allocated ids), so two runs of the same seed produce byte-comparable
files.  A sharded run's kernels each record their own spans;
:func:`merge_span_records` renumbers them into one trace.
:func:`normalize_for_golden` rounds every float to
microsecond-ish precision to keep committed goldens small and stable;
:func:`diff_traces` compares structure exactly (names, nodes, tiers,
parent links, verdicts, versions, event names) and timings within a
tolerance, which is what the golden-trace regression tests assert.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.span import Span

__all__ = [
    "diff_traces",
    "dump_jsonl",
    "load_jsonl",
    "merge_span_records",
    "normalize_for_golden",
    "span_records",
]

RecordOrSpan = Union[Span, Dict[str, Any]]


def span_records(spans: Iterable[RecordOrSpan]) -> List[Dict[str, Any]]:
    """Flatten spans (or pass dicts through) to JSONL-ready records."""
    return [span.to_record() if isinstance(span, Span) else span for span in spans]


def merge_span_records(shards: Sequence[List[dict]]) -> List[dict]:
    """Several tracers' records as one trace, in the order given.

    Every tracer numbers its traces and spans from 1, so appending one
    kernel's records to another's would use most ids twice and hang a
    span under a stranger's parent. Each later shard's ``trace`` /
    ``span`` / ``parent`` are shifted past the ids already used; the
    first shard's records pass through unchanged.
    """
    merged: List[dict] = []
    traces = spans = 0
    for records in shards:
        for record in records:
            if spans:
                parent = record["parent"]
                record = {
                    **record,
                    "trace": record["trace"] + traces,
                    "span": record["span"] + spans,
                    "parent": None if parent is None else parent + spans,
                }
            merged.append(record)
        traces += max((record["trace"] for record in records), default=0)
        spans += max((record["span"] for record in records), default=0)
    return merged


def dump_jsonl(spans: Iterable[RecordOrSpan], path) -> int:
    """Write one record per line; returns the number of lines."""
    records = span_records(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def load_jsonl(path) -> List[Dict[str, Any]]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _round_floats(value: Any, digits: int) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


def normalize_for_golden(
    records: Sequence[RecordOrSpan], digits: int = 6
) -> List[Dict[str, Any]]:
    """Round all floats so committed goldens are compact and stable."""
    return [_round_floats(record, digits) for record in span_records(records)]


def _diff_value(path: str, actual: Any, golden: Any, tolerance: float, out: List[str]):
    if isinstance(golden, bool) or isinstance(actual, bool):
        if actual is not golden:
            out.append(f"{path}: {actual!r} != {golden!r}")
        return
    if isinstance(golden, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(golden, int) and isinstance(actual, int):
            if actual != golden:
                out.append(f"{path}: {actual!r} != {golden!r}")
            return
        # Timings: tolerate absolute-or-relative drift.
        bound = max(tolerance, tolerance * max(abs(actual), abs(golden)))
        if abs(actual - golden) > bound:
            out.append(f"{path}: {actual!r} !~ {golden!r} (tol {bound:g})")
        return
    if isinstance(golden, dict) and isinstance(actual, dict):
        for key in sorted(set(golden) | set(actual)):
            if key not in actual:
                out.append(f"{path}.{key}: missing in actual")
            elif key not in golden:
                out.append(f"{path}.{key}: unexpected (not in golden)")
            else:
                _diff_value(f"{path}.{key}", actual[key], golden[key], tolerance, out)
        return
    if isinstance(golden, list) and isinstance(actual, list):
        if len(actual) != len(golden):
            out.append(f"{path}: length {len(actual)} != {len(golden)}")
        for index, (a, g) in enumerate(zip(actual, golden)):
            _diff_value(f"{path}[{index}]", a, g, tolerance, out)
        return
    if actual != golden:
        out.append(f"{path}: {actual!r} != {golden!r}")


def diff_traces(
    actual: Sequence[RecordOrSpan],
    golden: Sequence[Dict[str, Any]],
    tolerance: float = 1e-4,
    max_reports: int = 20,
) -> List[str]:
    """Differences between a trace and its golden (empty == match).

    Structure — span order, names, nodes, tiers, parent links, cache
    verdicts, versions, statuses, event names — must match exactly;
    every float (timings) is compared within ``tolerance``.
    """
    actual_records = span_records(actual)
    problems: List[str] = []
    if len(actual_records) != len(golden):
        problems.append(f"span count {len(actual_records)} != golden {len(golden)}")
    for index, (a, g) in enumerate(zip(actual_records, golden)):
        label = f"span[{index}]({g.get('name')}#{g.get('span')})"
        _diff_value(label, a, g, tolerance, problems)
        if len(problems) >= max_reports:
            problems.append("... (further differences suppressed)")
            break
    return problems
