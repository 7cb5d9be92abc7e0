"""Trace exporters: JSONL dump and load.

The JSONL format is one span record per line, sorted keys, in span
*start* order (the order the :class:`~repro.obs.tracer.RecordingTracer`
allocated ids), so two runs of the same seed produce byte-comparable
files.  A sharded run's kernels each record their own spans;
:func:`merge_span_records` renumbers them into one trace. (Comparing an
export with a committed golden is the tests' business:
``tests/obs/golden.py``.)
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.span import Span

__all__ = [
    "dump_jsonl",
    "load_jsonl",
    "merge_span_records",
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
