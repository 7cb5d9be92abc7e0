"""Tests for the obs metrics registry."""

import pytest

from repro.obs import MetricsRegistry, QuantileSketch
from repro.sim.metrics import MetricRegistry


class TestMetricsRegistry:
    def test_is_a_metric_registry(self):
        registry = MetricsRegistry()
        assert isinstance(registry, MetricRegistry)
        registry.counter("serve.layer.edge").inc(3)
        assert registry.counter("serve.layer.edge").value == 3
        registry.histogram("plt.all").observe(0.5)
        assert registry.histogram("plt.all").count == 1

    def test_sketch_create_or_get(self):
        registry = MetricsRegistry()
        sketch = registry.sketch("tier.plt.edge")
        assert isinstance(sketch, QuantileSketch)
        assert registry.sketch("tier.plt.edge") is sketch
        sketch.observe(0.25)
        assert registry.sketch("tier.plt.edge").count == 1

    def test_sketch_names_sorted(self):
        registry = MetricsRegistry()
        registry.sketch("b")
        registry.sketch("a")
        assert registry.sketch_names() == ["a", "b"]

    def test_snapshot_includes_sketch_summaries(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.sketch("tier.plt.origin").observe_many([0.1, 0.2, 0.3])
        snapshot = registry.snapshot()
        assert snapshot["c"] == 1
        assert snapshot["tier.plt.origin"]["count"] == 3
        assert snapshot["tier.plt.origin"]["p50"] == pytest.approx(
            0.2, rel=0.01
        )
