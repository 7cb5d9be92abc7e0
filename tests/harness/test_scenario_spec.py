"""ScenarioSpec rejects knobs no run can honour, at construction."""

import functools
import math

import pytest

from repro.faults import RetryPolicy
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.storage import BackendSpec
from repro.workload import WorkloadConfig


CLASSIC = functools.partial(ScenarioSpec, Scenario.CLASSIC_CDN)


@pytest.mark.parametrize(
    "build, knob",
    [
        (CLASSIC, "delta"),
        (CLASSIC, "page_ttl"),
        (CLASSIC, "detection_latency"),
        (CLASSIC, "purge_latency"),
        (CLASSIC, "replication_delay"),
        (CLASSIC, "stale_if_error"),
        # The specs a ScenarioSpec carries, and the trace generator's.
        (BackendSpec, "flush_interval"),
        (BackendSpec, "per_key_cost"),
        (BackendSpec, "read_latency"),
        (BackendSpec, "write_latency"),
        (RetryPolicy, "budget"),
        (RetryPolicy, "attempt_timeout"),
        (RetryPolicy, "base_backoff"),
        (WorkloadConfig, "write_rate"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf, -math.inf])
def test_durations_must_be_finite_and_non_negative(build, knob, value):
    with pytest.raises(ValueError, match=knob):
        build(**{knob: value})


@pytest.mark.parametrize(
    "knobs, names",
    [
        ({"load_multiplier": 0.99}, "load_multiplier"),
        ({"load_multiplier": math.inf}, "load_multiplier"),
        ({"load_multiplier": math.nan}, "load_multiplier"),
        ({"n_regions": 0}, "n_regions"),
        ({"txn_retry_limit": -1}, "txn_retry_limit"),
        ({"scenario": Scenario.SPEED_KIT, "delta": 0.0}, "delta"),
        # Contradictory pipeline latencies, on every scenario: the purge
        # completes after detection.
        ({"detection_latency": 0.5, "purge_latency": 0.1}, "purge_latency"),
        (
            {
                "scenario": Scenario.SPEED_KIT,
                "detection_latency": 0.5,
                "purge_latency": 0.1,
            },
            "detection_latency",
        ),
        ({"time_scale": 0.0}, "time_scale"),
        ({"time_scale": -2.0}, "time_scale"),
        ({"time_scale": math.nan}, "time_scale"),
        ({"time_scale": math.inf}, "time_scale"),
        # Contradictory knobs that would otherwise do nothing: one PoP
        # builds no replicator (yet the bound widened by the replication
        # delay), and no overload profile means nothing to admit into or
        # to scale.
        ({"replicate_pops": True}, "replicate_pops needs at least two PoPs"),
        (
            {"replicate_pops": True, "n_regions": 1},
            "replicate_pops needs at least two PoPs",
        ),
        (
            {"scenario": Scenario.SPEED_KIT, "admission": True},
            "admission requires an overload_profile",
        ),
        (
            {"scenario": Scenario.SPEED_KIT, "autoscale": True},
            "autoscale requires an overload_profile",
        ),
    ],
)
def test_out_of_range_knobs_are_named(knobs, names):
    knobs.setdefault("scenario", Scenario.CLASSIC_CDN)
    with pytest.raises(ValueError, match=names):
        ScenarioSpec(**knobs)


@pytest.mark.parametrize(
    "pops", [{"n_regions": 2}, {"pop_names": ("edge-1", "edge-2")}]
)
def test_replication_over_two_pops_is_accepted(pops):
    assert ScenarioSpec(
        Scenario.SPEED_KIT, replicate_pops=True, **pops
    ).replicate_pops


def test_boundary_values_are_accepted():
    spec = ScenarioSpec(
        Scenario.CLASSIC_CDN,
        delta=0.0,
        stale_if_error=0.0,
        detection_latency=0.0,
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
    with pytest.raises(ValueError, match="time_scale"):
        spec.time_scaled()
