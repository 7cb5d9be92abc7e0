"""NodeGovernor unit tests: slots, priority grants, shed thresholds.

Every test drives the governor directly on a bare
:class:`~repro.sim.environment.Environment` — no transport, no
workload — so each queueing behaviour is pinned in isolation.
"""

import pytest

from repro.sim.metrics import MetricRegistry
from repro.overload.governor import NodeGovernor
from repro.overload.priority import PriorityClass
from repro.sim.environment import Environment

pytestmark = pytest.mark.overload


def make_governor(env, metrics=None, **overrides):
    params = dict(
        node="pop",
        capacity=1,
        service_time=1.0,
        queue_limit=4,
        personalized_queue_limit=2,
        admission=True,
    )
    params.update(overrides)
    return NodeGovernor(env, metrics=metrics, **params)


def offer(env, governor, cls, outcomes, label, weight=1):
    """Spawn one request; append (label, admitted, finish_time)."""

    def request():
        admitted = yield from governor.acquire(cls, weight=weight)
        outcomes.append((label, admitted, env.now))

    return env.process(request())


class TestSlots:
    def test_admits_up_to_capacity_concurrently(self):
        env = Environment()
        governor = make_governor(env, capacity=3)
        outcomes = []
        for i in range(3):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)
        env.run()
        # All three held slots in parallel: one service time total.
        assert [done for _, _, done in outcomes] == [1.0, 1.0, 1.0]
        assert all(admitted for _, admitted, _ in outcomes)

    def test_excess_offers_queue_and_serialize(self):
        env = Environment()
        governor = make_governor(env, capacity=1)
        outcomes = []
        for i in range(3):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)
        env.run()
        assert outcomes == [(0, True, 1.0), (1, True, 2.0), (2, True, 3.0)]

    def test_queue_is_fifo_within_a_class(self):
        env = Environment()
        governor = make_governor(env, capacity=1, queue_limit=16)
        outcomes = []
        for i in range(5):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)
        env.run()
        assert [label for label, _, _ in outcomes] == [0, 1, 2, 3, 4]

    def test_slot_is_released_after_service_time(self):
        env = Environment()
        governor = make_governor(env)
        offer(env, governor, PriorityClass.STATIC, [], "x")
        env.run()
        assert governor.active == 0
        assert governor.queue_depth == 0


class TestPriorityGrants:
    def test_control_overtakes_queued_personalized(self):
        env = Environment()
        governor = make_governor(env, capacity=1, queue_limit=8)
        outcomes = []
        # One in service; then a personalized and a control offer queue.
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        offer(env, governor, PriorityClass.PERSONALIZED, outcomes, "pers")
        offer(env, governor, PriorityClass.CONTROL, outcomes, "ctl")
        env.run()
        assert [label for label, _, _ in outcomes] == [
            "busy",
            "ctl",
            "pers",
        ]

    def test_static_overtakes_queued_personalized(self):
        env = Environment()
        governor = make_governor(env, capacity=1, queue_limit=8)
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        offer(env, governor, PriorityClass.PERSONALIZED, outcomes, "pers")
        offer(env, governor, PriorityClass.STATIC, outcomes, "static")
        env.run()
        assert [label for label, _, _ in outcomes] == [
            "busy",
            "static",
            "pers",
        ]


class TestShedding:
    def test_personalized_sheds_at_its_own_smaller_limit(self):
        env = Environment()
        governor = make_governor(
            env, capacity=1, queue_limit=4, personalized_queue_limit=2
        )
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        # Two personalized queue (depth 0, 1); the third sees depth 2
        # == its class limit and is shed; a static at depth 2 < 4 still
        # queues.
        for i in range(3):
            offer(env, governor, PriorityClass.PERSONALIZED, outcomes, i)
        offer(env, governor, PriorityClass.STATIC, outcomes, "late")
        env.run()
        by_label = {label: admitted for label, admitted, _ in outcomes}
        assert by_label[0] and by_label[1]
        assert by_label[2] is False
        assert by_label["late"] is True

    def test_static_sheds_at_queue_limit(self):
        env = Environment()
        governor = make_governor(env, capacity=1, queue_limit=2)
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        for i in range(3):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)
        env.run()
        by_label = {label: admitted for label, admitted, _ in outcomes}
        assert by_label[0] and by_label[1]
        assert by_label[2] is False

    def test_shed_is_instant(self):
        env = Environment()
        governor = make_governor(
            env, capacity=1, queue_limit=1, personalized_queue_limit=1
        )
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        offer(env, governor, PriorityClass.STATIC, outcomes, "queued")
        offer(env, governor, PriorityClass.STATIC, outcomes, "shed")
        env.run()
        shed = [entry for entry in outcomes if entry[0] == "shed"]
        assert shed == [("shed", False, 0.0)]

    def test_control_never_sheds_whatever_the_depth(self):
        env = Environment()
        governor = make_governor(
            env, capacity=1, queue_limit=1, personalized_queue_limit=1
        )
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy")
        for i in range(10):
            offer(env, governor, PriorityClass.CONTROL, outcomes, i)
        env.run()
        assert all(admitted for _, admitted, _ in outcomes)

    def test_admission_off_is_an_unbounded_fifo(self):
        env = Environment()
        governor = make_governor(
            env,
            admission=False,
            capacity=1,
            queue_limit=1,
            personalized_queue_limit=1,
        )
        outcomes = []
        for i in range(20):
            offer(env, governor, PriorityClass.PERSONALIZED, outcomes, i)
        env.run()
        assert all(admitted for _, admitted, _ in outcomes)
        assert governor.queue_depth_peak == 19


class TestCapacityChanges:
    def test_set_capacity_wakes_queued_waiters(self):
        env = Environment()
        governor = make_governor(env, capacity=1, queue_limit=8)
        outcomes = []
        for i in range(4):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)

        def grow():
            yield env.timeout(0.5)
            governor.set_capacity(4)

        env.process(grow())
        env.run()
        # The three queued requests all start at 0.5 instead of
        # serializing behind one slot.
        assert [done for _, _, done in outcomes] == [1.0, 1.5, 1.5, 1.5]

    def test_shrink_never_preempts(self):
        env = Environment()
        governor = make_governor(env, capacity=2, service_time=2.0)
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, 0)
        offer(env, governor, PriorityClass.STATIC, outcomes, 1)

        def shrink():
            yield env.timeout(0.5)
            governor.set_capacity(1)

        env.process(shrink())
        env.run()
        # Both in-flight requests finish on schedule.
        assert [done for _, _, done in outcomes] == [2.0, 2.0]
        assert governor.capacity == 1

    def test_rejects_capacity_below_one(self):
        env = Environment()
        governor = make_governor(env)
        with pytest.raises(ValueError):
            governor.set_capacity(0)
        with pytest.raises(ValueError):
            make_governor(env, capacity=0)


class TestWeightedAccounting:
    def test_wave_weight_counts_per_request_everywhere(self):
        env = Environment()
        metrics = MetricRegistry()
        governor = make_governor(
            env, metrics=metrics, capacity=1, queue_limit=1
        )
        outcomes = []
        offer(env, governor, PriorityClass.STATIC, outcomes, "busy", 3)
        offer(env, governor, PriorityClass.STATIC, outcomes, "queued", 5)
        offer(env, governor, PriorityClass.STATIC, outcomes, "shed", 7)
        env.run()
        counter = lambda name: metrics.counter(name).value  # noqa: E731
        assert counter("overload.offered.total") == 15
        assert counter("overload.admitted.total") == 8
        assert counter("overload.queued.total") == 5
        assert counter("overload.shed.total") == 7
        assert counter("overload.shed.static") == 7
        assert counter("overload.pop.shed.static") == 7

    def test_offered_splits_into_admitted_plus_shed(self):
        env = Environment()
        metrics = MetricRegistry()
        governor = make_governor(
            env,
            metrics=metrics,
            capacity=2,
            queue_limit=3,
            personalized_queue_limit=1,
        )
        outcomes = []
        classes = [
            PriorityClass.STATIC,
            PriorityClass.PERSONALIZED,
            PriorityClass.CONTROL,
        ]
        for i in range(30):
            offer(env, governor, classes[i % 3], outcomes, i)
        env.run()
        counter = lambda name: metrics.counter(name).value  # noqa: E731
        assert counter("overload.offered.total") == 30
        assert counter("overload.offered.total") == counter(
            "overload.admitted.total"
        ) + counter("overload.shed.total")
        assert counter("overload.shed.control") == 0


class TestUtilizationIntegral:
    def test_busy_seconds_is_the_slot_time_integral(self):
        env = Environment()
        metrics = MetricRegistry()
        governor = make_governor(
            env, metrics=metrics, capacity=2, service_time=1.5
        )
        outcomes = []
        for i in range(4):
            offer(env, governor, PriorityClass.STATIC, outcomes, i)
        env.run()
        busy = metrics.counter("overload.pop.busy_seconds").value
        # 4 requests x 1.5s each, regardless of queueing shape.
        assert busy == pytest.approx(6.0)
