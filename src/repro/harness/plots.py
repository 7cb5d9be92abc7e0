"""Plain-text distribution plots for benchmark output.

The paper's figures are latency distributions; in a terminal-only
reproduction we render them as ASCII histograms and CDF tables so the
*shape* (modes, tails, crossovers) is visible in the benchmark logs
without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sim.metrics import Histogram

FULL_BLOCK = "#"


def text_histogram(
    values: Sequence[float],
    bins: int = 12,
    width: int = 40,
    title: str = "",
    unit: str = "",
) -> str:
    """Render a histogram of ``values`` as aligned text bars."""
    if bins <= 0:
        raise ValueError(f"bins must be positive: {bins}")
    if not values:
        return f"{title}\n(no data)" if title else "(no data)"
    low = min(values)
    high = max(values)
    if high == low:
        high = low + 1.0
    span = (high - low) / bins
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - low) / span))
        counts[index] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, count in enumerate(counts):
        lo = low + i * span
        hi = lo + span
        bar = FULL_BLOCK * max(
            1 if count else 0, round(width * count / peak)
        )
        lines.append(
            f"{lo:10.1f}-{hi:10.1f}{unit} |{bar:<{width}} {count}"
        )
    return "\n".join(lines)


def cdf_table(
    series: Dict[str, Sequence[float]],
    percentiles: Sequence[float] = (10, 25, 50, 75, 90, 95, 99),
    scale: float = 1.0,
    unit: str = "",
) -> List[Dict[str, object]]:
    """Rows of per-series percentiles — a printable CDF comparison."""
    rows = []
    for name, values in series.items():
        if not values:
            continue
        histogram = Histogram(name)
        histogram.extend(values)
        row: Dict[str, object] = {"series": name}
        for q in percentiles:
            label = f"p{q:g}{('_' + unit) if unit else ''}"
            row[label] = round(histogram.percentile(q) * scale, 1)
        rows.append(row)
    return rows


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line trend of ``values`` downsampled to ``width`` chars."""
    if not values:
        return ""
    marks = " .:-=+*#%@"
    if len(values) > width:
        step = len(values) / width
        sampled = [
            values[min(len(values) - 1, int(i * step))] for i in range(width)
        ]
    else:
        sampled = list(values)
    low, high = min(sampled), max(sampled)
    if high == low:
        return marks[len(marks) // 2] * len(sampled)
    out = []
    for value in sampled:
        level = (value - low) / (high - low)
        out.append(marks[min(len(marks) - 1, int(level * (len(marks) - 1)))])
    return "".join(out)
