"""Harness coverage for the extended scenario features."""

import random

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)
from tests.coherence.test_staleness_invariants import mutate_delta_term


def build_workload(consent_fraction=1.0, seed=0):
    catalog = generate_catalog(
        CatalogConfig(n_products=40), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(
            n_users=16, consent_fraction=consent_fraction
        ),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=600.0, session_rate=0.1, write_rate=0.05
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def run(workload, **spec_kwargs):
    catalog, users, trace = workload
    spec = ScenarioSpec(**spec_kwargs)
    return SimulationRunner(spec, catalog, users, trace).run()


class TestMultiPop:
    def test_two_pops_serve_and_stay_coherent(self):
        catalog, users, trace = build_workload()
        runner = SimulationRunner(
            ScenarioSpec(scenario=Scenario.SPEED_KIT, n_regions=2),
            catalog,
            users,
            trace,
        )
        result = runner.run()
        assert result.page_views > 0
        assert result.delta_violations == 0
        # Each region's clients reach their own PoP: both serve.
        assert sorted(runner.cdn.pops) == ["edge-r0", "edge-r1"]
        for pop in runner.cdn.pops.values():
            assert pop.counted("hit") + pop.counted("miss") > 0


class TestConsentMix:
    def test_partial_consent_splits_coverage(self):
        workload = build_workload(consent_fraction=0.5)
        result = run(workload, scenario=Scenario.SPEED_KIT)
        # Both populations executed; violations only judged where the
        # protocol promises the bound.
        assert result.delta_violations == 0
        assert result.reads_checked > 0

    def test_zero_consent_degrades_to_browser_only(self):
        workload = build_workload(consent_fraction=0.0)
        speed_kit = run(workload, scenario=Scenario.SPEED_KIT)
        browser = run(workload, scenario=Scenario.BROWSER_ONLY)
        # Nobody consented: the Speed Kit deployment behaves exactly
        # like plain browsers (identical PLT distribution).
        assert sorted(speed_kit.plt.values) == sorted(browser.plt.values)
        assert speed_kit.sketch_fetches == 0
        assert speed_kit.requests_scrubbed == 0


class TestSpecFeatures:
    def test_outage_through_spec(self):
        workload = build_workload()
        clean = run(workload, scenario=Scenario.SPEED_KIT)
        downed = run(
            workload, scenario=Scenario.SPEED_KIT, outage=(200.0, 300.0)
        )
        assert clean.failed_responses == 0
        assert downed.failed_responses > 0
        assert downed.error_rate() > 0

    def test_swr_through_spec(self):
        workload = build_workload()
        swr = run(
            workload,
            scenario=Scenario.SPEED_KIT,
            stale_while_revalidate=True,
        )
        assert swr.delta_violations == 0

    def test_swr_needs_its_two_delta_budget(self, monkeypatch):
        """Teeth for the gate above: judged against Δ instead of the
        2Δ verification budget, SWR serving breaks the bound."""
        mutate_delta_term(
            monkeypatch, "swr_budget", lambda spec: ("delta", spec.delta)
        )
        swr = run(
            build_workload(),
            scenario=Scenario.SPEED_KIT,
            stale_while_revalidate=True,
        )
        assert swr.delta_violations > 0

    def test_adaptive_ttl_through_spec(self):
        workload = build_workload()
        adaptive = run(
            workload, scenario=Scenario.SPEED_KIT, adaptive_ttl=True
        )
        assert adaptive.delta_violations == 0
        assert adaptive.page_views > 0

    def test_custom_label(self):
        workload = build_workload()
        result = run(
            workload, scenario=Scenario.SPEED_KIT, label="my-variant"
        )
        assert result.scenario_name == "my-variant"
