"""Tests for metric collectors."""

import pytest

from repro.sim import Counter, Gauge, Histogram, MetricRegistry, TimeSeries


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
