"""Tests for metric collectors."""

import gc
import math

import pytest

from repro.sim import Counter, Gauge, Histogram, MetricRegistry, TimeSeries
from repro.sim.metrics import Handles


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        g.set(10)
        g.set(7)
        assert g.value == 7.0


class TestHistogram:
    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(50)

    @pytest.mark.parametrize("end", ["min", "max"])
    def test_empty_extremum_raises_the_named_error(self, end):
        with pytest.raises(ValueError, match="histogram 'h' is empty"):
            getattr(Histogram("h"), end)()

    def test_single_value(self):
        h = Histogram("h")
        h.observe(5.0)
        assert h.percentile(0) == 5.0
        assert h.percentile(100) == 5.0
        assert h.percentile(50) == 5.0

    def test_median_of_odd_count(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4, 5])
        assert h.percentile(50) == 3.0

    def test_median_interpolates_even_count(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4])
        assert h.percentile(50) == 2.5

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_unsorted_input_handled(self):
        h = Histogram("h")
        h.extend([9, 1, 5, 3, 7])
        assert h.min() == 1
        assert h.max() == 9
        assert h.percentile(50) == 5

    def test_mean(self):
        h = Histogram("h")
        h.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert h.mean() == 5.0

    def test_mean_sums_left_to_right_on_every_interpreter(self):
        """No compensated summation (``sum`` since Python 3.12): the 1.0
        is absorbed by 1e16, as plain float addition does."""
        h = Histogram("h")
        h.extend([1e16, 1.0, -1e16])
        assert h.mean() == 0.0

    def test_sum_is_kept_in_observation_order(self):
        h = Histogram("h")
        h.extend([0.1, 0.4, 0.2])
        assert h.percentile(50) == 0.2  # sorts the stored values in place
        assert h.values == (0.1, 0.2, 0.4)
        assert h.sum == (0.1 + 0.4) + 0.2
        assert h.sum != (0.1 + 0.2) + 0.4

    def test_summary_keys(self):
        h = Histogram("h")
        h.extend(range(100))
        summary = h.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "min", "max"}
        assert summary["count"] == 100
        assert summary["p95"] == pytest.approx(94.05)

    def test_summary_of_empty_histogram(self):
        assert Histogram("h").summary() == {"count": 0}

    def test_observe_after_percentile_query(self):
        h = Histogram("h")
        h.extend([5, 1, 3])
        assert h.percentile(50) == 3
        h.observe(0)
        assert h.min() == 0


class TestTimeSeries:
    def test_record(self):
        ts = TimeSeries("s")
        ts.record(1.0, 10)
        ts.record(2.0, 20)
        ts.record(3.0, 30)
        assert ts.points == [(1.0, 10), (2.0, 20), (3.0, 30)]
        assert len(ts) == 3


def fed(histogram, *values):
    for value in values:
        histogram.observe(value)


#: Each collector refuses a NaN or infinite value by its own name; at
#: the guard ``amount < 0`` a NaN counted on, and a histogram fed a NaN
#: stayed marked sorted (its p50 read NaN and its max 2.0 of 3, 1, 2).
NON_FINITE = {
    "counter-nan": (lambda: Counter("x").inc(math.nan), "counter 'x'"),
    "counter-inf": (lambda: Counter("x").inc(math.inf), "counter 'x'"),
    "histogram-nan": (
        lambda: fed(Histogram("h"), 3.0, math.nan, 1.0, 2.0),
        "histogram 'h'",
    ),
    "histogram-inf": (lambda: fed(Histogram("h"), -math.inf), "histogram 'h'"),
    "gauge-nan": (lambda: Gauge("g").set(math.nan), "gauge 'g'"),
    "gauge-inf": (lambda: Gauge("g").set(math.inf), "gauge 'g'"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_a_non_finite_value_is_refused_by_the_metric_name(case):
    feed, name = NON_FINITE[case]
    with pytest.raises(ValueError, match=name):
        feed()


def test_a_refused_observation_leaves_the_histogram_as_it_was():
    histogram = Histogram("h")
    fed(histogram, 3.0)
    with pytest.raises(ValueError):
        histogram.observe(math.nan)
    fed(histogram, 1.0, 2.0)
    assert (histogram.percentile(50), histogram.max()) == (2.0, 3.0)


class TestHandles:
    def test_a_metric_is_created_at_its_first_index(self):
        reg = MetricRegistry()
        handles = reg.handles("speedkit.")
        assert reg.counter_names() == []
        handles["hit"].inc()
        handles["hit"].inc(2)
        assert reg.counter_names() == ["speedkit.hit"]
        assert handles["hit"] is reg.counter("speedkit.hit")
        assert reg.snapshot() == {"speedkit.hit": 3.0}

    def test_a_tuple_key_names_the_metric_by_its_parts(self):
        reg = MetricRegistry()
        handles = reg.handles("serve.kind.")
        handles["sw", "page"].inc()
        assert handles.name_of(("sw", "page")) == "serve.kind.sw.page"
        assert reg.counter_names() == ["serve.kind.sw.page"]

    @pytest.mark.parametrize("kind", [Counter, Gauge, Histogram, TimeSeries])
    def test_each_collector_kind_has_handles(self, kind):
        reg = MetricRegistry()
        metric = reg.handles("a.", kind)["b"]
        assert type(metric) is kind and metric.name == "a.b"
        assert "a.b" in reg.snapshot()

    def test_handles_hold_the_registry_factory_not_their_owner(self):
        reg = MetricRegistry()
        handles = reg.handles("x.")
        assert isinstance(handles, Handles)
        referents = gc.get_referents(handles)
        assert all(
            getattr(item, "__self__", reg) is reg
            for item in referents
            if callable(item) and not isinstance(item, type)
        )


class TestMetricRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.series("s") is reg.series("s")

    def test_a_hit_allocates_nothing(self, monkeypatch):
        import repro.sim.metrics as metrics

        built = []

        def recording(cls):
            def build(name):
                built.append(cls.__name__)
                return cls(name)

            return build

        monkeypatch.setattr(metrics, "Counter", recording(metrics.Counter))
        monkeypatch.setattr(metrics, "Gauge", recording(metrics.Gauge))
        reg = MetricRegistry()
        for i in range(3):
            reg.counter("a").inc()
            reg.gauge("g").set(i + 1)
        assert built == ["Counter", "Gauge"]
        assert reg.snapshot() == {"a": 3, "g": 3}

    def test_snapshot_contains_all_metrics(self):
        reg = MetricRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("size").set(7)
        reg.histogram("lat").observe(1.5)
        reg.series("ts").record(0.0, 1.0)
        snap = reg.snapshot()
        assert snap["hits"] == 3
        assert snap["size"] == 7
        assert snap["lat"]["count"] == 1
        assert snap["ts"] == 1
