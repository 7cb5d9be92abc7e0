"""Metric collection for simulations.

Plain in-memory collectors: counters, gauges, value histograms with
percentile queries, and time series. Every distribution — PLT, per-tier
and per-level latency, erasure latency, queue waits — is a
:class:`Histogram`, so a reported percentile has one definition. A
:class:`MetricRegistry` groups them under hierarchical dotted names so
harness code can dump every metric of a run in one pass; it is the one
registry every component takes.

A number is kept once, in the collector written by the subsystem where
the thing happens, and ``RunResult.over`` restates it — a counter, a
histogram's peak (the extrema), histograms' observation counts
(``page_views``, ``reads_checked``), the ``tier.plt.*`` histograms'
sums — so merging shards is merging registries and nothing else
(DESIGN.md, *Observability*): per-layer and per-kind servings are the
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
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple


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

    Beside them it keeps :attr:`sum`, added up in observation order.
    The stored values cannot stand in for it: the first percentile
    query sorts them in place.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values = array("d")
        self._sorted = True
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._sum += value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s raw observations into self (exact concat).

        Percentile queries over the merged histogram are identical to
        queries over one histogram fed both observation streams — raw
        values are retained, so the merge is exact and order-independent
        up to the (irrelevant) storage order. :attr:`sum` adds the two
        running sums: a merge of shards adds the shard totals.
        """
        total = self._sum
        self.extend(other._values)
        self._sum = total + other._sum
        return self

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    @property
    def sum(self) -> float:
        """The observations added up in the order they were observed."""
        return self._sum

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
        """The stored values summed left to right, over their count.

        ``reduce(add, …)`` and not ``sum``: from Python 3.12 ``sum``
        compensates float rounding, so its last bits would depend on
        the interpreter.
        """
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return reduce(add, self._values) / len(self._values)

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

    def histograms(self) -> Dict[str, Histogram]:
        """Every histogram by name, in creation order (merged-in ones
        last)."""
        return dict(self._histograms)

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
        gauges sum, histograms concatenate their raw observations
        and add their running sums, and time series interleave their
        points in time order. Metrics present only in ``other`` are
        created. This is the registry half of the sharded-simulation
        merge contract — merging N per-shard registries is equivalent
        to one registry having observed all N event streams.
        """
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            self.gauge(name).value += gauge.value
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        for name, series in other._series.items():
            self.series(name).merge(series)
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
        return out
