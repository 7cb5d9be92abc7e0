"""Trace analysis: per-tier latency attribution and read-log rebuild.

Two consumers:

* the harness report attributes each page load's wall-clock time to
  the tier that spent it (client / browser / sw / network / edge /
  origin) via a critical-path walk, such that the per-tier seconds of
  one page view sum to its PLT;
* the coherence bridge rebuilds the checker's read log purely from
  exported span records, proving traces are complete enough to audit
  the Δ bound without the live run.

The attribution walk: a span's children are grouped into clusters of
time-overlapping siblings (a page-load wave slot is one cluster, a
sequential revalidate-then-fetch is two).  Each cluster contributes
its *critical* child — the one finishing last — recursively; the
span's own tier absorbs the remainder of its duration.  For the
simulator's barrier-structured page loads this reproduces PLT exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.http.degraded import reason_in_attrs, reason_of

__all__ = [
    "critical_path_attribution",
    "overload_accounting",
    "pageview_attributions",
    "reads_from_trace",
    "response_attrs",
    "tier_breakdown",
    "txns_from_trace",
]

Record = Dict[str, Any]


def response_attrs(response) -> Dict[str, Any]:
    """Span attributes capturing what a response was and who served it."""
    attrs: Dict[str, Any] = {
        "status": int(response.status),
        "served_by": response.served_by,
        "url": str(response.url) if response.url is not None else None,
        "version": response.version,
        "version_key": response.version_key,
        "kind": response.kind,
    }
    reason = reason_of(response)
    if reason is not None and reason.span_attr is not None:
        attrs[reason.span_attr] = True
    return attrs


def _children_index(records: List[Record]) -> Dict[Optional[int], List[Record]]:
    index: Dict[Optional[int], List[Record]] = {}
    for record in records:
        index.setdefault(record.get("parent"), []).append(record)
    for kids in index.values():
        kids.sort(key=lambda r: (r["start"], r["span"]))
    return index


def _clusters(kids: List[Record]) -> List[List[Record]]:
    """Group siblings into maximal runs of time-overlapping spans."""
    clusters: List[List[Record]] = []
    current: List[Record] = []
    current_end = -1.0
    for kid in kids:
        if not current or kid["start"] < current_end:
            current.append(kid)
        else:
            clusters.append(current)
            current = [kid]
        if kid["end"] > current_end:
            current_end = kid["end"]
    if current:
        clusters.append(current)
    return clusters


def critical_path_attribution(
    record: Record,
    children: Dict[Optional[int], List[Record]],
    out: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Attribute ``record``'s duration to tiers along its critical path."""
    if out is None:
        out = {}
    kids = [
        kid
        for kid in children.get(record["span"], [])
        if kid.get("end") is not None and not kid.get("attrs", {}).get("background")
    ]
    duration = (record.get("end") or record["start"]) - record["start"]
    consumed = 0.0
    for cluster in _clusters(kids):
        critical = max(cluster, key=lambda r: (r["end"], r["end"] - r["start"]))
        consumed += critical["end"] - critical["start"]
        critical_path_attribution(critical, children, out)
    tier = record.get("tier") or "other"
    out[tier] = out.get(tier, 0.0) + max(0.0, duration - consumed)
    return out


def pageview_attributions(
    records: List[Record],
) -> List[Tuple[Record, Dict[str, float]]]:
    """(pageview record, tier -> seconds) for every traced page view."""
    children = _children_index(records)
    out = []
    for record in records:
        if record.get("name") == "pageview" and record.get("end") is not None:
            out.append((record, critical_path_attribution(record, children)))
    return out


def tier_breakdown(records: List[Record]) -> Dict[str, float]:
    """Total seconds per tier across all traced page views."""
    totals: Dict[str, float] = {}
    for _, attribution in pageview_attributions(records):
        for tier, seconds in attribution.items():
            totals[tier] = totals.get(tier, 0.0) + seconds
    return totals


def _read_from_attrs(
    attrs: Dict[str, Any], pageview: Record
) -> Optional[Dict[str, Any]]:
    if attrs.get("status") != 200:
        return None
    if attrs.get("version") is None or attrs.get("version_key") is None:
        return None
    reason = reason_in_attrs(attrs)
    if reason is not None and not reason.checked:
        return None
    return {
        "read_at": pageview["end"],
        "issued_at": pageview["start"],
        "client": pageview.get("attrs", {}).get("user"),
        "covered": bool(pageview.get("attrs", {}).get("covered", True)),
        "url": attrs.get("url"),
        "version": attrs.get("version"),
        "version_key": attrs.get("version_key"),
        "served_by": attrs.get("served_by"),
        "degraded": reason is not None,
    }


def txns_from_trace(records: List[Record]) -> List[Dict[str, Any]]:
    """Rebuild the transaction log purely from exported ``txn`` spans.

    Each entry mirrors what :meth:`TxnConsistencyChecker.record_txn`
    consumes live: requested/achieved levels, the degradation mark,
    the certified read set (OK reads that carried version metadata),
    the validation instant, and the finish time — enough to re-derive
    the fractured-read and serialization verdicts offline.
    """
    txns: List[Dict[str, Any]] = []
    for record in records:
        if record.get("name") != "txn" or record.get("end") is None:
            continue
        attrs = record.get("attrs", {})
        reads = [
            (read["version_key"], read["version"], read["read_at"])
            for read in attrs.get("reads", [])
            if read.get("status") == 200
            and read.get("version_key") is not None
            and read.get("version") is not None
            and read.get("born") is not None
        ]
        txns.append(
            {
                "requested": attrs.get("level"),
                "achieved": attrs.get("achieved"),
                "degraded": bool(attrs.get("degraded")),
                "reads": reads,
                "validated_at": attrs.get("validated_at"),
                "finished_at": record["end"],
                "client": attrs.get("user"),
                "aborts": attrs.get("aborts", 0),
                "erase_conflict": bool(attrs.get("erase_conflict")),
            }
        )
    return txns


def _dirty_response_attrs(attrs: Dict[str, Any]) -> bool:
    """Whether one span's response attributes disqualify goodput."""
    reason = reason_in_attrs(attrs)
    if reason is not None and reason.fallback:
        return True
    status = attrs.get("status")
    return isinstance(status, int) and status >= 500


def _subtree_clean(
    record: Record, children: Dict[Optional[int], List[Record]]
) -> bool:
    """No shed, no degraded serving, no 5xx anywhere under ``record``.

    Background work (prefetch, SWR revalidation) is excluded — it is
    not part of what the page delivered, matching the live rule that
    judges only the page load's own responses.
    """
    stack = [record]
    while stack:
        node = stack.pop()
        attrs = node.get("attrs", {})
        if node is not record:
            if node.get("name") == "overload.shed":
                return False
            if _dirty_response_attrs(attrs):
                return False
        for item in attrs.get("responses", []):
            if _dirty_response_attrs(item):
                return False
        stack.extend(
            kid
            for kid in children.get(node.get("span"), [])
            if not kid.get("attrs", {}).get("background")
        )
    return True


def overload_accounting(
    records: List[Record], slo: Optional[float] = None
) -> Dict[str, Any]:
    """Rebuild the overload ledger purely from exported span records.

    Shed and queue totals come from the governor's ``overload.shed`` /
    ``overload.queue`` spans (each carries its request weight ``n``);
    goodput re-applies the live rule offline: a page view counts iff
    its subtree holds no shed, no degraded serving, no 5xx, and its
    ``plt`` attribute meets the SLO. With ``slo=None`` goodput is 0,
    mirroring a run without an overload profile.
    """
    children = _children_index(records)
    shed_requests = 0
    queued_requests = 0
    shed_by_class: Dict[str, int] = {}
    for record in records:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "overload.shed":
            n = int(attrs.get("n", 1))
            shed_requests += n
            cls = str(attrs.get("cls", "unknown"))
            shed_by_class[cls] = shed_by_class.get(cls, 0) + n
        elif name == "overload.queue":
            queued_requests += int(attrs.get("n", 1))
    page_views = 0
    goodput_pages = 0
    for record in records:
        if record.get("name") != "pageview" or record.get("end") is None:
            continue
        page_views += 1
        if slo is None:
            continue
        plt = record.get("attrs", {}).get("plt")
        if plt is None or plt > slo:
            continue
        if _subtree_clean(record, children):
            goodput_pages += 1
    return {
        "page_views": page_views,
        "goodput_pages": goodput_pages,
        "shed_requests": shed_requests,
        "queued_requests": queued_requests,
        "shed_by_class": shed_by_class,
    }


def reads_from_trace(records: List[Record]) -> List[Dict[str, Any]]:
    """Rebuild the coherence read log purely from span records.

    Mirrors the runner's recording rule: every OK, versioned,
    version-keyed, non-offline response of a page load is a read at
    the page view's completion time by the page view's user.
    """
    children = _children_index(records)
    reads: List[Dict[str, Any]] = []
    for record in records:
        if record.get("name") != "pageview" or record.get("end") is None:
            continue
        for kid in children.get(record["span"], []):
            attrs = kid.get("attrs", {})
            if kid.get("name") == "request":
                read = _read_from_attrs(attrs, record)
                if read is not None:
                    reads.append(read)
            elif kid.get("name") == "request-batch":
                for item in attrs.get("responses", []):
                    read = _read_from_attrs(item, record)
                    if read is not None:
                        reads.append(read)
    return reads
