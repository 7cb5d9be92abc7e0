"""Circuit breaker x queue drain: the latent flap, pinned.

Under overload a governor can hold admitted requests for many seconds
and then release a burst of them when capacity frees up. Successes
from that burst were *admitted before* the breaker tripped — if they
could close an open breaker, every drained backlog would flap it
open/closed and defeat the cooldown. The regression tests pin the
rule: only a success the breaker routed (closed state, or the
half-open probe) may reset it.

The integration half replays chaos-faulted storage (FlakyBackend)
under 10x queue pressure and checks the run stays sane.
"""

import pytest

from repro.faults import PROFILES, CircuitBreaker, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.overload import OVERLOAD_PROFILES

pytestmark = pytest.mark.overload


def tripped_breaker(now=0.0):
    breaker = CircuitBreaker()
    for _ in range(3):
        breaker.record_failure("pop", now)
    assert breaker.is_open("pop", now)
    return breaker


class TestQueueDrainRegression:
    def test_stale_success_cannot_close_an_open_breaker(self):
        breaker = tripped_breaker(now=0.0)
        # A request admitted pre-trip finishes while the breaker is
        # open and no probe is in flight: it must be ignored.
        breaker.record_success("pop")
        assert breaker.is_open("pop", 1.0)
        assert breaker.metrics.counter("breaker.pop.closed").value == 0

    def test_a_drained_burst_does_not_flap(self):
        breaker = tripped_breaker(now=0.0)
        # The governor releases a 20-request backlog; all succeed.
        for _ in range(20):
            breaker.record_success("pop")
        # Still open for the whole cooldown, trip count unchanged.
        assert breaker.is_open("pop", 29.9)
        assert breaker.trips == 1
        assert not breaker.allow("pop", 15.0)

    def test_half_open_probe_still_closes_on_success(self):
        breaker = tripped_breaker(now=0.0)
        assert breaker.allow("pop", 31.0)  # the half-open probe
        breaker.record_success("pop")
        assert not breaker.is_open("pop", 31.0)
        assert breaker.metrics.counter("breaker.pop.closed").value == 1

    def test_stale_successes_during_cooldown_do_not_mask_probe_failure(
        self,
    ):
        breaker = tripped_breaker(now=0.0)
        breaker.record_success("pop")  # drained stragglers...
        breaker.record_success("pop")
        assert breaker.allow("pop", 31.0)
        breaker.record_failure("pop", 31.0)  # ...probe still fails
        assert breaker.is_open("pop", 60.0)
        assert not breaker.allow("pop", 60.0)

    def test_stale_success_before_trip_still_counts(self):
        """Closed-state successes keep resetting the failure streak —
        the fix only ignores successes while open without a probe."""
        breaker = CircuitBreaker()
        breaker.record_failure("pop", 0.0)
        breaker.record_failure("pop", 0.0)
        breaker.record_success("pop")
        breaker.record_failure("pop", 0.0)
        assert not breaker.is_open("pop", 0.0)


class TestFlakyBackendUnderQueuePressure:
    """Chaos faults (including FlakyBackend storage reads) composed
    with a saturated control plane: breakers, retries, and shedding
    must not corrupt the ledger or the coherence verdict."""

    @pytest.fixture(scope="class")
    def runner(self, workload):
        catalog, users, trace = workload
        spec = ScenarioSpec(
            scenario=Scenario.SPEED_KIT,
            seed=11,
            overload_profile=OVERLOAD_PROFILES["flash-crowd"],
            load_multiplier=10.0,
            admission=True,
            fault_profile=PROFILES["chaos"],
            stale_if_error=60.0,
            retry=RetryPolicy(),
        )
        runner = SimulationRunner(spec, catalog, users, trace)
        runner.run()
        return runner

    def test_storage_faults_really_fired(self, runner):
        assert runner.spec.fault_profile.storage_error_rate > 0
        assert runner.result.page_views > 400

    def test_shedding_happened_alongside_faults(self, runner):
        assert runner.result.shed_requests > 0
        assert runner.result.shed_requests == runner.result.shed_responses

    def test_ledger_stays_conservative(self, runner):
        assert runner.result.offered_requests == (
            runner.result.admitted_requests + runner.result.shed_requests
        )
        assert runner.result.shed_by_class.get("control", 0) == 0

    def test_coherence_verdict_survives(self, runner):
        runner.checker.assert_delta_atomic()

    def test_the_site_stays_mostly_available(self, runner):
        assert runner.result.availability() > 0.5
