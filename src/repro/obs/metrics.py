"""The obs metrics registry: counters, gauges, and streaming sketches.

:class:`MetricsRegistry` extends :class:`repro.sim.metrics.MetricRegistry`
(so every existing counter/gauge/exact-histogram/series call keeps
working) and adds create-or-get :class:`~repro.obs.quantile.QuantileSketch`
streaming histograms for p50/p95/p99 queries that do not retain raw
samples and merge exactly across shards or runs.

It also hosts the structured serving tallies the harness previously
kept as ad-hoc dicts: per-layer and per-kind serving counts flow
through ``serve.layer.*`` / ``serve.kind.*`` counters, with degraded
servings (stale-if-error and offline responses) tracked separately
under ``serve.degraded.*`` so fresh cache hits are distinguishable
from responses the degradation ladder kept alive.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.quantile import QuantileSketch
from repro.sim.metrics import MetricRegistry

__all__ = ["MetricsRegistry"]


class MetricsRegistry(MetricRegistry):
    """MetricRegistry plus streaming quantile sketches."""

    def __init__(self) -> None:
        super().__init__()
        self._sketches: Dict[str, QuantileSketch] = {}

    def sketch(self, name: str, relative_accuracy: float = 0.0025) -> QuantileSketch:
        """Create-or-get the named streaming quantile sketch."""
        existing = self._sketches.get(name)
        if existing is None:
            existing = QuantileSketch(relative_accuracy)
            self._sketches[name] = existing
        return existing

    def sketch_names(self):
        return sorted(self._sketches)

    def merge(self, other: MetricRegistry) -> "MetricsRegistry":
        """Fold another registry into self (exact for every collector).

        Counters/gauges sum, histograms concatenate, series interleave
        (the base-registry contract), and quantile sketches use their
        exact, order-independent bucket merge — so the merged registry
        answers every query as if it had ingested all shards' streams.
        """
        super().merge(other)
        if isinstance(other, MetricsRegistry):
            for name, sketch in other._sketches.items():
                self.sketch(name, sketch.relative_accuracy).merge(sketch)
        return self

    def snapshot(self) -> Dict[str, object]:
        out = super().snapshot()
        for name, sketch in self._sketches.items():
            out[name] = sketch.summary()
        return out
