"""PoP autoscaler: hysteresis units, metamorphic load contract.

The unit half drives ``_evaluate_pop`` tick by tick with hand-written
metric samples — utilization and queue depth are the *only* inputs, so
each hysteresis rule is pinned exactly. The metamorphic half replays
the pop-bound regime end to end and checks the contract the issue
states: doubling offered load with autoscaling on must not blow up the
shed ratio, and the whole decision stream is deterministic per seed.
"""

import os

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.overload import (
    OVERLOAD_PROFILES,
    ControlPlane,
    OverloadProfile,
    PopAutoscaler,
    autoscaler as autoscaler_module,
)
from repro.parallel import ShardedSimulationRunner
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry

pytestmark = pytest.mark.overload

POP = "pop-unit"


class Harness:
    """One governed PoP plus an autoscaler whose loop never runs —
    ticks are injected by hand at a fixed 5s cadence."""

    def __init__(self, capacity=2):
        import random

        self.env = Environment()
        self.metrics = MetricRegistry()
        profile = OverloadProfile(
            name="unit",
            pop_capacity=capacity,
            pop_service_time=0.1,
            queue_limit=8,
            personalized_queue_limit=4,
        )
        self.plane = ControlPlane(
            self.env,
            profile,
            pop_names=(POP,),
            admission=True,
            metrics=self.metrics,
        )
        self.scaler = PopAutoscaler(
            self.env,
            self.plane,
            self.metrics,
            rng=random.Random(0),
            horizon=0.0,  # the real loop exits immediately
        )
        self.governor = self.plane.pop_governors[POP]

    def feed(self, samples, interval=5.0):
        """Apply (busy_seconds_increment, queue_depth) ticks."""

        def driver():
            for busy_increment, depth in samples:
                yield self.env.timeout(interval)
                if busy_increment:
                    self.metrics.counter(
                        f"overload.{POP}.busy_seconds"
                    ).inc(busy_increment)
                self.metrics.gauge(f"overload.{POP}.queue_depth").set(
                    depth
                )
                self.scaler._evaluate_pop(POP)

        self.env.process(driver())
        self.env.run()
        return self.scaler.decisions


# A 5s window at capacity 2 is 10 slot-seconds; 9+ is ~0.9 utilization
# (high), 1 is 0.1 (low).
HIGH, LOW = (9.0, 0), (1.0, 0)


class TestHysteresis:
    def test_one_high_sample_does_not_scale(self):
        assert Harness().feed([HIGH]) == []

    def test_scales_up_after_consecutive_high_samples(self):
        decisions = Harness().feed([HIGH, HIGH])
        assert [d.direction for d in decisions] == ["up"]
        assert decisions[0].from_capacity == 2
        assert decisions[0].to_capacity == 4
        assert decisions[0].node == POP

    def test_queue_depth_alone_triggers_scale_up(self):
        decisions = Harness().feed([(0.0, 5), (0.0, 5)])
        assert [d.direction for d in decisions] == ["up"]

    def test_a_calm_sample_resets_the_up_streak(self):
        # high, mid (neither high nor low), high — never two in a row.
        mid = (6.0, 1)
        assert Harness().feed([HIGH, mid, HIGH]) == []

    def test_cooldown_blocks_immediate_rescale(self):
        # Up at t=10; queue pressure again at 15 (inside the 10s
        # cooldown: no decision) and at 20 (cooldown over, streak
        # rebuilt): second up. Depth-driven samples so the doubled
        # capacity cannot dilute utilization below the high band.
        decisions = Harness().feed([HIGH, HIGH, (0.0, 5), (0.0, 5)])
        assert [d.direction for d in decisions] == ["up", "up"]
        assert decisions[1].at - decisions[0].at >= 10.0

    def test_scale_up_applies_to_the_governor(self):
        harness = Harness()
        harness.feed([HIGH, HIGH])
        assert harness.governor.capacity == 4
        assert (
            harness.metrics.gauge(f"overload.{POP}.capacity").value == 4
        )

    def test_scales_down_after_sustained_idle_with_empty_queue(self):
        harness = Harness()
        decisions = harness.feed([HIGH, HIGH] + [LOW] * 6)
        assert [d.direction for d in decisions] == ["up", "down"]
        assert decisions[1].from_capacity == 4
        assert decisions[1].to_capacity == 2

    def test_idle_with_queued_work_never_scales_down(self):
        harness = Harness()
        decisions = harness.feed([HIGH, HIGH] + [(1.0, 1)] * 8)
        assert [d.direction for d in decisions] == ["up"]

    def test_never_scales_below_the_profile_floor(self):
        decisions = Harness().feed([LOW] * 12)
        assert decisions == []

    def test_never_scales_above_max_capacity(self, monkeypatch):
        monkeypatch.setattr(autoscaler_module, "MAX_CAPACITY", 4)
        monkeypatch.setattr(autoscaler_module, "COOLDOWN", 0.0)
        harness = Harness()
        decisions = harness.feed([HIGH] * 10)
        assert all(d.to_capacity <= 4 for d in decisions)
        assert harness.governor.capacity == 4

    def test_up_streak_length_is_read_at_use(self, monkeypatch):
        monkeypatch.setattr(autoscaler_module, "UP_CONSECUTIVE", 3)
        assert Harness().feed([HIGH, HIGH]) == []
        decisions = Harness().feed([HIGH] * 3)
        assert [d.direction for d in decisions] == ["up"]

    def test_scale_factor_is_read_at_use(self, monkeypatch):
        monkeypatch.setattr(autoscaler_module, "FACTOR", 3.0)
        decisions = Harness().feed([HIGH, HIGH])
        assert decisions[0].to_capacity == 6

    def test_queue_depth_bar_is_read_at_use(self, monkeypatch):
        monkeypatch.setattr(autoscaler_module, "HIGH_QUEUE_DEPTH", 10)
        assert Harness().feed([(0.0, 5), (0.0, 5)]) == []

    def test_up_counter_matches_decisions(self):
        harness = Harness()
        harness.feed([HIGH, HIGH])
        assert harness.metrics.counter("overload.scale_ups").value == 1
        assert harness.metrics.counter("overload.scale_downs").value == 0


def _pop_bound_spec(multiplier, autoscale=True, seed=11):
    return ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        seed=seed,
        overload_profile=OVERLOAD_PROFILES["pop-bound"],
        load_multiplier=multiplier,
        admission=True,
        autoscale=autoscale,
    )


_RUNS = {}


def run_pop_bound(workload, multiplier, autoscale=True):
    key = (multiplier, autoscale)
    if key not in _RUNS:
        catalog, users, trace = workload
        runner = SimulationRunner(
            _pop_bound_spec(multiplier, autoscale), catalog, users, trace
        )
        runner.run()
        _RUNS[key] = runner
    return _RUNS[key]


class TestClosedLoop:
    def test_the_loop_really_scales_both_ways(self, workload):
        runner = run_pop_bound(workload, 10.0)
        assert runner.result.scale_ups > 0
        assert runner.result.scale_downs > 0

    def test_autoscaling_beats_fixed_capacity(self, workload):
        fixed = run_pop_bound(workload, 10.0, autoscale=False)
        scaled = run_pop_bound(workload, 10.0)
        assert scaled.result.shed_ratio() < fixed.result.shed_ratio()
        assert scaled.result.goodput_ratio() > fixed.result.goodput_ratio()

    def test_doubling_load_stays_inside_the_shed_band(self, workload):
        """The metamorphic contract: with the autoscaler absorbing the
        wave, doubling offered load may cost at most 25 points of shed
        ratio (without it, the pop-bound regime sheds over half of all
        traffic at 10x already)."""
        base = run_pop_bound(workload, 10.0)
        doubled = run_pop_bound(workload, 20.0)
        assert doubled.result.page_views > base.result.page_views
        assert (
            doubled.result.shed_ratio()
            <= base.result.shed_ratio() + 0.25
        )
        assert doubled.result.goodput_ratio() >= 0.5

    def test_decision_stream_is_deterministic(self, workload):
        catalog, users, trace = workload
        first = SimulationRunner(
            _pop_bound_spec(10.0), catalog, users, trace
        )
        first.run()
        again = SimulationRunner(
            _pop_bound_spec(10.0), catalog, users, trace
        )
        again.run()
        assert first._autoscaler.decisions == again._autoscaler.decisions
        assert len(first._autoscaler.decisions) > 0

    def test_zero_delta_violations_while_scaling(self, workload):
        runner = run_pop_bound(workload, 20.0)
        runner.checker.assert_delta_atomic()


class TestWorkerPathEquivalence:
    def _sharded(self, workload, workers):
        catalog, users, trace = workload
        return ShardedSimulationRunner(
            _pop_bound_spec(10.0),
            catalog,
            users,
            trace,
            n_shards=2,
            workers=workers,
        ).run()

    @pytest.mark.multiprocess
    def test_pool_path_is_bit_identical_to_in_process(self, workload):
        override = os.environ.get("REPRO_PARALLEL_WORKERS")
        pool_workers = max(1, int(override)) if override else 2
        sequential = self._sharded(workload, 1)
        pooled = self._sharded(workload, pool_workers)
        assert pooled.to_dict() == sequential.to_dict()
        assert pooled.plt.values == sequential.plt.values
