"""Metric collection for simulations.

Plain in-memory collectors: counters, gauges, value histograms with
percentile queries, time series, and streaming quantile sketches
(:class:`~repro.sim.quantile.QuantileSketch`: p50/p95/p99 without
retaining raw samples). A :class:`MetricRegistry` groups them under
hierarchical dotted names so harness code can dump every metric of a
run in one pass; it is the one registry every component takes.

A number is kept once, in the collector written by the subsystem where
the thing happens, and ``RunResult.over`` restates it — a counter, a
histogram's peak (the extrema), histograms' observation counts
(``page_views``, ``reads_checked``), the ``tier.plt.*`` sketches' sums
— so merging shards is merging registries and nothing else (DESIGN.md,
*Observability*): per-layer and per-kind servings are the
``serve.layer.*`` / ``serve.kind.*.*`` counters, with degraded
servings (stale-if-error and offline responses) under
``serve.degraded.*`` so fresh cache hits are distinguishable from
responses the degradation ladder kept alive. Names carry a tier
(``sw.hit``, ``speedkit.scrubbed``), a PoP (``edge.<pop>.hit``) or a
kind — never a user id; per-request detail lives in the spans.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.quantile import QuantileSketch


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move up and down."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Stores raw observations; answers percentile/mean queries exactly.

    Simulations here record at most a few million observations, so exact
    storage is affordable and avoids bucket-boundary artifacts in the
    reproduced figures. They are packed as C doubles — the very values
    a list would box as floats, at a quarter of the size.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values = array("d")
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s raw observations into self (exact concat).

        Percentile/mean queries over the merged histogram are identical
        to queries over one histogram fed both observation streams —
        raw values are retained, so the merge is exact and
        order-independent up to the (irrelevant) storage order.
        """
        self.extend(other._values)
        return self

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values = array("d", sorted(self._values))
            self._sorted = True

    def percentile(self, q: float) -> float:
        """Exact percentile via linear interpolation; ``q`` in [0, 100]."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        self._ensure_sorted()
        if len(self._values) == 1:
            return self._values[0]
        rank = (q / 100.0) * (len(self._values) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return self._values[low]
        weight = rank - low
        return self._values[low] * (1 - weight) + self._values[high] * weight

    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return sum(self._values) / len(self._values)

    def min(self) -> float:
        return self.percentile(0.0)

    def max(self) -> float:
        return self.percentile(100.0)

    def summary(self) -> Dict[str, float]:
        """The standard row reported by the benchmark harness."""
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min(),
            "max": self.max(),
        }

    def __repr__(self) -> str:
        return f"Histogram(name={self.name!r}, count={self.count})"


@dataclass
class TimeSeries:
    """Timestamped observations, e.g. hit-ratio over simulated time."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.points.append((float(time), float(value)))

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Fold ``other``'s points into self, keeping time order."""
        self.points = sorted(self.points + other.points)
        return self

    def __len__(self) -> int:
        return len(self.points)


class MetricRegistry:
    """Create-or-get access to named metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def sketch(
        self, name: str, relative_accuracy: float = 0.0025
    ) -> QuantileSketch:
        """Create-or-get the named streaming quantile sketch."""
        sketch = self._sketches.get(name)
        if sketch is None:
            sketch = self._sketches[name] = QuantileSketch(relative_accuracy)
        return sketch

    def sketch_names(self) -> List[str]:
        return sorted(self._sketches)

    def sketches(self) -> Dict[str, QuantileSketch]:
        """Every sketch by name, in creation order (merged-in ones last)."""
        return dict(self._sketches)

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def counter_names(self) -> List[str]:
        """Names of all counters created so far (sorted)."""
        return sorted(self._counters)

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold another registry into self, metric by metric.

        The merge is *exact* for every collector type: counters and
        gauges sum, histograms concatenate their raw observations,
        time series interleave their points in time order, and
        quantile sketches use their order-independent bucket merge.
        Metrics present only in ``other`` are created. This is the
        registry half of the sharded-simulation merge contract —
        merging N per-shard registries is equivalent to one registry
        having observed all N event streams.
        """
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            self.gauge(name).value += gauge.value
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        for name, series in other._series.items():
            self.series(name).merge(series)
        for name, sketch in other._sketches.items():
            self.sketch(name, sketch.relative_accuracy).merge(sketch)
        return self

    def snapshot(self) -> Dict[str, object]:
        """A flat dict of every metric's current value/summary."""
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            out[name] = hist.summary()
        for name, series in self._series.items():
            out[name] = len(series)
        for name, sketch in self._sketches.items():
            out[name] = sketch.summary()
        return out
