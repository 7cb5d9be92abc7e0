"""Tests for the obs metrics registry."""

import pytest

from repro import sim
from repro.obs import MetricRegistry, QuantileSketch


class TestMetricRegistry:
    def test_is_the_one_metric_registry(self):
        assert MetricRegistry is sim.metrics.MetricRegistry
        registry = MetricRegistry()
        registry.counter("serve.layer.edge").inc(3)
        assert registry.counter("serve.layer.edge").value == 3
        registry.histogram("plt.all").observe(0.5)
        assert registry.histogram("plt.all").count == 1

    def test_sketch_create_or_get(self):
        registry = MetricRegistry()
        sketch = registry.sketch("tier.plt.edge")
        assert isinstance(sketch, QuantileSketch)
        assert registry.sketch("tier.plt.edge") is sketch
        sketch.observe(0.25)
        assert registry.sketch("tier.plt.edge").count == 1

    def test_sketch_names_sorted(self):
        registry = MetricRegistry()
        registry.sketch("b")
        registry.sketch("a")
        assert registry.sketch_names() == ["a", "b"]

    def test_snapshot_includes_sketch_summaries(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        for value in (0.1, 0.2, 0.3):
            registry.sketch("tier.plt.origin").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 1
        assert snapshot["tier.plt.origin"]["count"] == 3
        assert snapshot["tier.plt.origin"]["p50"] == pytest.approx(
            0.2, rel=0.01
        )


class TestOneRegistry:
    """Every component's signature says ``MetricRegistry``, and the
    registry has the whole surface."""

    def test_an_erase_records_its_latency_sketch(self):
        from repro.gdpr import ErasureCoordinator
        from repro.origin.store import DocumentStore

        metrics = MetricRegistry()
        ErasureCoordinator(store=DocumentStore(), metrics=metrics).erase("u1")
        assert metrics.sketch("gdpr.erase.latency").count == 1

    def test_a_governed_wait_records_its_sketch(self):
        from repro.overload.governor import NodeGovernor
        from repro.overload.priority import PriorityClass
        from repro.sim.environment import Environment

        env = Environment()
        metrics = MetricRegistry()
        governor = NodeGovernor(
            env,
            node="pop",
            capacity=1,
            service_time=1.0,
            queue_limit=4,
            personalized_queue_limit=2,
            admission=True,
            metrics=metrics,
        )

        def request():
            yield from governor.acquire(PriorityClass.STATIC)

        env.process(request())
        env.process(request())  # has to wait for the first one's slot
        env.run()
        assert metrics.sketch("overload.pop.wait").count == 1
        assert metrics.sketch_names() == ["overload.pop.wait"]

    def test_merge_carries_sketches(self):
        ours, theirs = MetricRegistry(), MetricRegistry()
        for value in (1.0, 2.0):
            theirs.sketch("lat").observe(value)
        ours.merge(theirs)
        assert ours.sketch("lat").count == 2
        assert ours.snapshot()["lat"]["count"] == 2
