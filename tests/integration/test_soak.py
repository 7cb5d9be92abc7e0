"""Soak test: every feature enabled at once, nothing breaks.

One run combines adaptive TTLs, predictive prefetching,
stale-while-revalidate, a multi-PoP CDN, a flash sale (write burst +
traffic spike), an origin outage, and a mixed-consent population —
and the invariants that each feature promises individually must all
still hold together.
"""

import random

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    FlashSaleConfig,
    UserPopulationConfig,
    WorkloadConfig,
    generate_catalog,
    generate_users,
    make_flash_sale_trace,
)

DELTA = 45.0
SALE = FlashSaleConfig(start=900.0, end=1500.0, spike_rate=0.5)
OUTAGE = (2000.0, 2200.0)


@pytest.fixture(scope="module")
def soak_result():
    catalog = generate_catalog(
        CatalogConfig(n_products=80), random.Random(0)
    )
    users = generate_users(
        UserPopulationConfig(n_users=40, consent_fraction=0.85),
        random.Random(1),
    )
    workload = WorkloadConfig(
        duration=2700.0, session_rate=0.2, write_rate=0.08
    )
    trace = make_flash_sale_trace(
        catalog, users, workload, SALE, random.Random(2)
    )
    spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=DELTA,
        adaptive_ttl=True,
        stale_while_revalidate=True,
        prefetch=True,
        n_regions=2,
        outage=OUTAGE,
        label="speed-kit-everything",
    )
    runner = SimulationRunner(spec, catalog, users, trace)
    return runner, runner.run()


class TestSoak:
    def test_all_traffic_executed(self, soak_result):
        runner, result = soak_result
        assert result.page_views == len(runner.trace.page_views())

    def test_no_delta_violations(self, soak_result):
        _, result = soak_result
        assert result.reads_checked > 1000
        assert result.delta_violations == 0

    def test_swr_staleness_budget_holds(self, soak_result):
        _, result = soak_result
        # SWR budget = 2Δ, plus purge window and one transit.
        assert result.max_staleness <= 2 * DELTA + 0.080 + 1.0

    def test_outage_caused_bounded_failures(self, soak_result):
        _, result = soak_result
        assert result.failed_responses > 0
        assert result.error_rate() < 0.05

    def test_caching_still_effective_under_stress(self, soak_result):
        _, result = soak_result
        assert result.cache_hit_ratio() > 0.6

    def test_personalization_maintained_for_covered_users(self, soak_result):
        _, result = soak_result
        # Consenting users get segment variants, non-consenting users
        # get origin-personalized (private) renders — both are correct.
        assert result.personalization_rate() == 1.0

    def test_sketch_and_scrubbing_active(self, soak_result):
        _, result = soak_result
        assert result.sketch_fetches > 0
        assert result.requests_scrubbed > 0

    def test_multi_pop_traffic(self, soak_result):
        runner, _ = soak_result
        # Each region's clients reach their own PoP: both serve.
        assert len(runner.cdn.pops) == 2
        for pop in runner.cdn.pops.values():
            assert pop.counted("hit") + pop.counted("miss") > 0

    def test_deterministic_under_full_feature_load(self, soak_result):
        runner, result = soak_result
        again = SimulationRunner(
            runner.spec, runner.catalog, runner.users, runner.trace
        ).run()
        assert sorted(again.plt.values) == sorted(result.plt.values)
        assert again.origin_requests == result.origin_requests
        assert again.delta_violations == result.delta_violations
