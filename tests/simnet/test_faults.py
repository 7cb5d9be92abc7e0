"""Tests for the fault schedule."""

import random

import pytest

from repro.simnet import NO_FAULTS, FaultSchedule, OutageWindow


def test_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(10.0, 10.0)
    with pytest.raises(ValueError):
        OutageWindow(10.0, 5.0)


def test_window_covers_half_open_interval():
    window = OutageWindow(10.0, 20.0)
    assert window.covers(10.0)
    assert window.covers(19.999)
    assert not window.covers(20.0)
    assert not window.covers(9.999)


def test_schedule_is_down():
    schedule = FaultSchedule()
    schedule.add_outage("origin", 100.0, 200.0)
    assert schedule.is_down("origin", 150.0)
    assert not schedule.is_down("origin", 50.0)
    assert not schedule.is_down("edge", 150.0)


def test_multiple_windows():
    schedule = FaultSchedule()
    schedule.add_outage("origin", 0.0, 10.0)
    schedule.add_outage("origin", 50.0, 60.0)
    assert schedule.is_down("origin", 5.0)
    assert not schedule.is_down("origin", 20.0)
    assert schedule.is_down("origin", 55.0)
    assert schedule.total_downtime("origin") == 20.0
    assert schedule.total_downtime("never") == 0.0


def test_origin_outage_factory():
    schedule = FaultSchedule.origin_outage(100.0, 130.0)
    assert schedule.is_down("origin", 110.0)
    assert schedule.total_downtime("origin") == 30.0


class TestOracleDefaults:
    """The surface the request path calls, answered by the base type."""

    def test_the_per_message_queries_draw_nothing(self):
        schedule = FaultSchedule.origin_outage(10.0, 20.0)
        bystander = random.Random(7)
        before = bystander.getstate(), random.getstate()
        for _ in range(50):
            assert schedule.should_fail("origin", 15.0)
            assert not schedule.should_fail("origin", 25.0)
            assert not schedule.loses_message("client", "origin")
            assert schedule.latency_factor("origin", "client") == 1.0
        assert (bystander.getstate(), random.getstate()) == before
        # ... and it has no stream of its own to draw from.
        assert not any(
            isinstance(value, random.Random)
            for value in vars(schedule).values()
        )

    def test_should_fail_is_is_down(self):
        schedule = FaultSchedule()
        schedule.add_outage("edge", 0.0, 5.0)
        for node in ("edge", "origin"):
            for at in (0.0, 4.9, 5.0, 60.0):
                assert schedule.should_fail(node, at) == schedule.is_down(
                    node, at
                )

    def test_no_faults_never_fails_and_cannot_be_edited(self):
        assert not NO_FAULTS.should_fail("origin", 0.0)
        assert not NO_FAULTS.is_down("origin", 1e9)
        assert NO_FAULTS.total_downtime("origin") == 0.0
        with pytest.raises((TypeError, AttributeError)):
            NO_FAULTS.add_outage("origin", 0.0, 1.0)
        assert not NO_FAULTS.is_down("origin", 0.5)
