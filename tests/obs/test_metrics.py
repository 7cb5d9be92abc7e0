"""Tests for the obs metrics registry."""

from repro import sim
from repro.obs import MetricRegistry
from repro.sim.metrics import Histogram


class TestMetricRegistry:
    def test_is_the_one_metric_registry(self):
        assert MetricRegistry is sim.metrics.MetricRegistry
        registry = MetricRegistry()
        registry.counter("serve.layer.edge").inc(3)
        assert registry.counter("serve.layer.edge").value == 3
        registry.histogram("plt.all").observe(0.5)
        assert registry.histogram("plt.all").count == 1

    def test_histogram_create_or_get(self):
        registry = MetricRegistry()
        histogram = registry.histogram("tier.plt.edge")
        assert isinstance(histogram, Histogram)
        assert registry.histogram("tier.plt.edge") is histogram
        histogram.observe(0.25)
        assert registry.histogram("tier.plt.edge").count == 1

    def test_histograms_in_creation_order(self):
        registry = MetricRegistry()
        registry.histogram("b")
        registry.histogram("a")
        assert list(registry.histograms()) == ["b", "a"]

    def test_snapshot_includes_histogram_summaries(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        for value in (0.1, 0.2, 0.3):
            registry.histogram("tier.plt.origin").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 1
        assert snapshot["tier.plt.origin"]["count"] == 3
        assert snapshot["tier.plt.origin"]["p50"] == 0.2


class TestOneRegistry:
    """Every component's signature says ``MetricRegistry``, and the
    registry has the whole surface."""

    def test_an_erase_records_its_latency_histogram(self):
        from repro.gdpr import ErasureCoordinator
        from repro.origin.store import DocumentStore

        metrics = MetricRegistry()
        ErasureCoordinator(store=DocumentStore(), metrics=metrics).erase("u1")
        assert metrics.histogram("gdpr.erase.latency").count == 1

    def test_a_governed_wait_records_its_histogram(self):
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
        assert metrics.histogram("overload.pop.wait").count == 1
        assert list(metrics.histograms()) == ["overload.pop.wait"]

    def test_merge_carries_histograms(self):
        ours, theirs = MetricRegistry(), MetricRegistry()
        for value in (1.0, 2.0):
            theirs.histogram("lat").observe(value)
        ours.merge(theirs)
        assert ours.histogram("lat").count == 2
        assert ours.snapshot()["lat"]["count"] == 2
