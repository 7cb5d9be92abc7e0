"""ScenarioSpec rejects knobs no run can honour, at construction."""

import math

import pytest

from repro.harness.scenarios import Scenario, ScenarioSpec


@pytest.mark.parametrize(
    "knob",
    [
        "delta",
        "page_ttl",
        "detection_latency",
        "purge_latency",
        "replication_delay",
        "stale_if_error",
    ],
)
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf, -math.inf])
def test_durations_must_be_finite_and_non_negative(knob, value):
    with pytest.raises(ValueError, match=knob):
        ScenarioSpec(Scenario.CLASSIC_CDN, **{knob: value})


@pytest.mark.parametrize(
    "knobs, names",
    [
        ({"load_multiplier": 0.99}, "load_multiplier"),
        ({"load_multiplier": math.inf}, "load_multiplier"),
        ({"load_multiplier": math.nan}, "load_multiplier"),
        ({"n_regions": 0}, "n_regions"),
        ({"txn_retry_limit": -1}, "txn_retry_limit"),
        ({"scenario": Scenario.SPEED_KIT, "delta": 0.0}, "delta"),
    ],
)
def test_out_of_range_knobs_are_named(knobs, names):
    knobs.setdefault("scenario", Scenario.CLASSIC_CDN)
    with pytest.raises(ValueError, match=names):
        ScenarioSpec(**knobs)


def test_boundary_values_are_accepted():
    spec = ScenarioSpec(
        Scenario.CLASSIC_CDN,
        delta=0.0,
        stale_if_error=0.0,
        purge_latency=0.0,
        load_multiplier=1.0,
        n_regions=1,
        txn_retry_limit=0,
    )
    assert spec.stale_if_error == 0.0


def test_time_scaled_copies_are_validated_too():
    spec = ScenarioSpec(Scenario.SPEED_KIT, time_scale=0.5)
    assert spec.time_scaled().delta == 30.0
    spec.time_scale = math.nan
    with pytest.raises(ValueError):
        spec.time_scaled()
