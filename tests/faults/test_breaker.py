"""Tests for the per-PoP circuit breaker state machine."""

from repro.faults import CircuitBreaker
from repro.faults import breaker as breaker_module


class TestClosed:
    def test_allows_by_default(self):
        breaker = CircuitBreaker()
        assert breaker.allow("edge", 0.0)
        assert not breaker.is_open("edge", 0.0)

    def test_isolated_failures_do_not_trip(self):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        breaker.record_failure("edge", 1.0)
        breaker.record_success("edge")
        breaker.record_failure("edge", 2.0)
        breaker.record_failure("edge", 3.0)
        assert breaker.allow("edge", 4.0)
        assert breaker.trips == 0


class TestOpen:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker()
        for t in range(3):
            breaker.record_failure("edge", float(t))
        assert breaker.is_open("edge", 3.0)
        assert not breaker.allow("edge", 3.0)
        assert breaker.trips == 1

    def test_targets_are_independent(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge-a", 0.0)
        assert not breaker.allow("edge-a", 0.0)
        assert breaker.allow("edge-b", 0.0)

    def test_threshold_is_read_at_use(self, monkeypatch):
        breaker = CircuitBreaker()
        monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 5)
        for t in range(4):
            breaker.record_failure("edge", float(t))
        assert breaker.allow("edge", 4.0)
        breaker.record_failure("edge", 4.0)
        assert not breaker.allow("edge", 4.0)
        assert breaker.trips == 1

    def test_stays_open_through_cooldown(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert not breaker.allow("edge", 29.9)


class TestHalfOpen:
    def test_one_probe_after_cooldown(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert breaker.allow("edge", 31.0)  # the probe
        assert not breaker.allow("edge", 31.0)  # only one at a time

    def test_cooldown_is_read_at_use(self, one_failure_trips, monkeypatch):
        monkeypatch.setattr(breaker_module, "COOLDOWN", 5.0)
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert not breaker.allow("edge", 4.9)
        assert breaker.allow("edge", 5.0)  # the probe

    def test_probe_success_closes(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert breaker.allow("edge", 31.0)
        breaker.record_success("edge")
        assert breaker.allow("edge", 31.0)
        assert not breaker.is_open("edge", 31.0)

    def test_probe_failure_rearms_cooldown(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert breaker.allow("edge", 31.0)
        breaker.record_failure("edge", 31.0)
        assert not breaker.allow("edge", 60.0)  # 31 + 30 > 60
        assert breaker.allow("edge", 61.5)  # next probe


class TestValidation:
    def test_trip_metrics(self, one_failure_trips):
        breaker = CircuitBreaker()
        breaker.record_failure("edge", 0.0)
        assert breaker.metrics.counter("breaker.trips").value == 1
        assert breaker.metrics.counter("breaker.edge.opened").value == 1
