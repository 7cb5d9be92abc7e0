"""Golden-trace comparison for the observability tests.

:func:`normalize_for_golden` rounds every float to microsecond-ish
precision to keep committed goldens small and stable; :func:`diff_traces`
compares two exports as forests — both sides in :func:`canonical_forest`
order — structure exactly (the tree, names, nodes, tiers, verdicts,
versions, event names) and timings within a tolerance.
"""

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.obs import span_records


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
    records: Sequence[Any], digits: int = 6
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


#: Record fields that only number spans; the canonical walk renumbers them.
_IDS = ("trace", "span", "parent")


def _sibling_key(record: Dict[str, Any]) -> tuple:
    # Rounded as goldens are, so an export and its golden sort alike.
    rounded = _round_floats(record, 6)
    rest = {k: v for k, v in rounded.items() if k not in _IDS}
    return (
        rounded["start"],
        rounded["name"],
        rounded.get("node") or "",
        rounded.get("tier") or "",
        json.dumps(rounded.get("attrs", {}), sort_keys=True),
        json.dumps(rest, sort_keys=True),
    )


def canonical_forest(spans: Iterable[Any]) -> List[Dict[str, Any]]:
    """The spans as a forest in one canonical order, ids renumbered.

    Siblings (and roots) are ordered by start, name, node, tier and
    attributes, the rest of the record breaking what ties remain; the
    spans are listed in a depth-first walk of that order, and
    ``span`` / ``parent`` / ``trace`` are renumbered by the walk. Two
    exports of one forest are therefore equal whatever order their
    spans were recorded and numbered in. A span whose parent is not in
    the export is a root.
    """
    records = span_records(spans)
    present = {record["span"] for record in records}
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        parent = record["parent"] if record["parent"] in present else None
        children.setdefault(parent, []).append(record)
    for kids in children.values():
        kids.sort(key=_sibling_key)
    span_ids: Dict[Any, int] = {}
    trace_ids: Dict[Any, int] = {}
    walk: List[Dict[str, Any]] = []
    stack = list(reversed(children.get(None, [])))
    while stack:
        record = stack.pop()
        span_ids[record["span"]] = len(span_ids) + 1
        walk.append(
            {
                **record,
                "trace": trace_ids.setdefault(record["trace"], len(trace_ids) + 1),
                "span": span_ids[record["span"]],
                "parent": span_ids.get(record["parent"]),
            }
        )
        stack.extend(reversed(children.get(record["span"], [])))
    return walk


def diff_traces(
    actual: Sequence[Any],
    golden: Sequence[Dict[str, Any]],
    tolerance: float = 1e-4,
    max_reports: int = 20,
) -> List[str]:
    """Differences between a trace and its golden (empty == match).

    Both sides are compared as forests (:func:`canonical_forest`): the
    order spans were recorded in and the ids they were given do not
    count. Structure — the tree, names, nodes, tiers, cache verdicts,
    versions, statuses, event names — must match exactly; every float
    (timings) is compared within ``tolerance``.
    """
    actual_records = canonical_forest(actual)
    golden = canonical_forest(golden)
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
