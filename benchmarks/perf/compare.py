"""``BENCHMARK.json`` as the single source of names, units and bounds.

``list`` prints it; ``compare`` judges two result files against it.
Neither holds a bound, a unit or a metric name of its own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_contract() -> dict:
    return read_json(ROOT / "BENCHMARK.json")


def format_list(contract: dict) -> str:
    lines = [f"command: {' '.join(contract['command'])}", "", "workloads:"]
    lines += [f"  {w['name']:<12} {w['why']}" for w in contract["workloads"]]
    lines += ["", "end-to-end metrics (name, unit, better, bound):"]
    lines += [
        f"  {m['name']:<20} {m['unit']:<8} {m['better']:<7} {m['bound']:.0%}"
        for m in contract["end_to_end"]
    ]
    lines += ["", "per-layer metrics (name, unit, better):"]
    lines += [
        f"  {m['name']:<36} {m['unit']:<6} {m['better']}" for m in contract["per_layer"]
    ]
    return "\n".join(lines)


def _spread(metric: dict) -> float:
    """Run-to-run quartile distance as a share of the median."""
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(spec: dict, base: dict, new: dict) -> Tuple[float, str]:
    """``(ratio, verdict)`` of one metric on one workload.

    ``regressed``: the new median is worse than the base's by more than
    the bound. ``improved``: better by more than either side's own
    quartile spread. ``unresolved``: a spread is wider than the bound,
    so the runs cannot tell (reported instead of ``within-bound``,
    never instead of a regression already beyond bound plus spread).
    """
    ratio = new["value"] / base["value"]
    worse_by = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
    spread = max(_spread(base), _spread(new))
    if worse_by > spec["bound"] + spread:
        return ratio, "regressed"
    if spread > spec["bound"]:
        return ratio, "unresolved"
    if worse_by > spec["bound"]:
        return ratio, "regressed"
    if -worse_by > spread:
        return ratio, "improved"
    return ratio, "within-bound"


def compare(contract: dict, base: dict, new: dict) -> Tuple[List[Dict], bool]:
    """One row per workload x end-to-end metric, and whether any regressed."""
    rows = []
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        ours, theirs = base["workloads"][name], new["workloads"][name]
        for spec in contract["end_to_end"]:
            a = ours["metrics"][spec["name"]]
            b = theirs["metrics"][spec["name"]]
            ratio, outcome = verdict(spec, a, b)
            rows.append(
                {
                    "workload": name,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "base": a,
                    "new": b,
                    "ratio": ratio,
                    "bound": spec["bound"],
                    "verdict": outcome,
                }
            )
        same = ours["info"]["sim_digest"] == theirs["info"]["sim_digest"]
        rows.append(
            {
                "workload": name,
                "metric": "sim_digest",
                "verdict": "identical" if same else "differs",
            }
        )
    return rows, any(row["verdict"] == "regressed" for row in rows)


def _cell(metric: dict) -> str:
    return (
        f"{metric['value']:.6g} [{metric['q1']:.6g}, {metric['q3']:.6g}]"
        f" n={metric['n']}"
    )


def format_rows(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<11} {'metric':<18} {'base median [q1, q3]':<38} "
        f"{'new median [q1, q3]':<38} {'new/base':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        if "ratio" not in row:
            lines.append(f"{row['workload']:<11} {row['metric']:<18} {row['verdict']}")
            continue
        lines.append(
            f"{row['workload']:<11} {row['metric']:<18} "
            f"{_cell(row['base']) + ' ' + row['unit']:<38} "
            f"{_cell(row['new']) + ' ' + row['unit']:<38} "
            f"{row['ratio']:>9.4f} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)
