"""Exact-merge semantics of the metric registries.

The sharded orchestrator folds per-shard registries into one; these
merges must be *exact* — no sampling, no averaging of averages:
counters sum, gauges add, histograms concatenate raw values, time
series interleave in time order, and quantile sketches merge bucket
by bucket (order-independent).
"""

from repro.sim.metrics import MetricRegistry


def test_counters_and_gauges_sum():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("hits").inc(3)
    b.counter("hits").inc(4)
    b.counter("misses").inc(2)
    a.gauge("depth").set(5)
    b.gauge("depth").set(7)
    a.merge(b)
    assert a.counter("hits").value == 7
    assert a.counter("misses").value == 2
    assert a.gauge("depth").value == 12


def test_histograms_concatenate_raw_values():
    a, b = MetricRegistry(), MetricRegistry()
    for value in (1.0, 3.0):
        a.histogram("plt").observe(value)
    for value in (2.0, 4.0):
        b.histogram("plt").observe(value)
    a.merge(b)
    assert sorted(a.histogram("plt").values) == [1.0, 2.0, 3.0, 4.0]
    # Quantiles of the merged histogram are quantiles of the union —
    # exactly what a serial run observing all four values reports.
    assert a.histogram("plt").percentile(50) == 2.5


def test_series_interleave_in_time_order():
    a, b = MetricRegistry(), MetricRegistry()
    a.series("timeline").record(1.0, 10.0)
    a.series("timeline").record(3.0, 30.0)
    b.series("timeline").record(2.0, 20.0)
    a.merge(b)
    assert a.series("timeline").points == [
        (1.0, 10.0),
        (2.0, 20.0),
        (3.0, 30.0),
    ]


def test_merge_is_associative_on_counters_and_histograms():
    def registry(values):
        reg = MetricRegistry()
        for value in values:
            reg.counter("n").inc()
            reg.histogram("h").observe(value)
        return reg

    left = registry([1.0]).merge(registry([2.0])).merge(registry([3.0]))
    right = registry([1.0]).merge(
        registry([2.0]).merge(registry([3.0]))
    )
    assert left.counter("n").value == right.counter("n").value == 3
    assert sorted(left.histogram("h").values) == sorted(
        right.histogram("h").values
    )


def test_sketches_merge_exactly():
    a, b = MetricRegistry(), MetricRegistry()
    direct = MetricRegistry()
    for i in range(500):
        value = 0.01 * (i + 1)
        target = a if i % 2 else b
        target.sketch("lat").observe(value)
        direct.sketch("lat").observe(value)
    a.merge(b)
    for q in (0.5, 0.9, 0.99):
        assert a.sketch("lat").quantile(q) == direct.sketch(
            "lat"
        ).quantile(q)
    assert a.sketch("lat").count == 500


def test_metrics_registry_merge_includes_base_collectors():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("reqs").inc()
    b.counter("reqs").inc()
    b.sketch("lat").observe(1.0)
    a.merge(b)
    assert a.counter("reqs").value == 2
    assert a.sketch("lat").count == 1
