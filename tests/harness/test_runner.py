"""End-to-end scenario replay tests — the whole system, together."""

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


@pytest.fixture(scope="module")
def workload():
    catalog = generate_catalog(
        CatalogConfig(n_products=60), random.Random(0)
    )
    users = generate_users(
        UserPopulationConfig(n_users=20, consent_fraction=1.0),
        random.Random(1),
    )
    config = WorkloadConfig(
        duration=900.0,
        session_rate=0.08,
        mean_session_length=4.0,
        think_time_mean=10.0,
        write_rate=0.05,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(2)
    )
    return catalog, users, trace


def run_scenario(workload, scenario, **kwargs):
    catalog, users, trace = workload
    spec = ScenarioSpec(scenario=scenario, **kwargs)
    return SimulationRunner(spec, catalog, users, trace).run()


@pytest.fixture(scope="module")
def no_cache(workload):
    return run_scenario(workload, Scenario.NO_CACHE)


@pytest.fixture(scope="module")
def browser_only(workload):
    return run_scenario(workload, Scenario.BROWSER_ONLY)


@pytest.fixture(scope="module")
def classic_cdn(workload):
    return run_scenario(workload, Scenario.CLASSIC_CDN)


@pytest.fixture(scope="module")
def speed_kit(workload):
    return run_scenario(workload, Scenario.SPEED_KIT)


class TestScenarioBasics:
    def test_all_page_views_executed(self, workload, no_cache):
        _, _, trace = workload
        assert no_cache.page_views == len(trace.page_views())

    def test_no_cache_serves_everything_from_origin(self, no_cache):
        assert no_cache.cache_hit_ratio() == 0.0
        assert set(no_cache.served_by_layer) == {"origin"}

    def test_browser_cache_improves_on_no_cache(
        self, no_cache, browser_only
    ):
        assert browser_only.cache_hit_ratio() > 0.2
        assert browser_only.plt.mean() < no_cache.plt.mean()

    def test_classic_cdn_improves_on_browser_only(
        self, browser_only, classic_cdn
    ):
        assert classic_cdn.plt.mean() < browser_only.plt.mean()
        assert "edge" in classic_cdn.served_by_layer

    def test_speed_kit_beats_classic_cdn(self, classic_cdn, speed_kit):
        assert speed_kit.plt.percentile(50) < classic_cdn.plt.percentile(50)
        assert speed_kit.cache_hit_ratio() > classic_cdn.cache_hit_ratio()

    def test_speed_kit_reduces_origin_load(self, classic_cdn, speed_kit):
        assert speed_kit.origin_requests < classic_cdn.origin_requests


class TestCoherence:
    def test_speed_kit_is_delta_atomic(self, speed_kit):
        assert speed_kit.reads_checked > 0
        assert speed_kit.delta_violations == 0

    def test_speed_kit_staleness_bounded(self, speed_kit):
        # Δ (60 s default) + purge latency + one transit.
        assert speed_kit.max_staleness <= 60.0 + 0.080 + 1.0

    def test_classic_cdn_can_serve_staler_data(
        self, classic_cdn, speed_kit
    ):
        # With 300 s TTLs and ongoing writes, the classic CDN's worst
        # staleness exceeds Speed Kit's Δ bound.
        if classic_cdn.stale_reads:
            assert classic_cdn.max_staleness >= speed_kit.max_staleness


class TestSpeedKitSpecifics:
    def test_sketch_traffic_accounted(self, speed_kit):
        assert speed_kit.sketch_fetches > 0
        assert speed_kit.sketch_bytes > 0

    def test_requests_were_scrubbed(self, speed_kit):
        assert speed_kit.requests_scrubbed > 0

    def test_sw_layer_appears(self, speed_kit):
        assert "sw" in speed_kit.served_by_layer

    def test_static_assets_hit_ratio_is_high(self, speed_kit):
        assert speed_kit.hit_ratio_for_kind("static") > 0.5

    def test_fragments_never_cached(self, speed_kit):
        assert speed_kit.hit_ratio_for_kind("fragment") == 0.0

    def test_summary_row_keys(self, speed_kit):
        row = speed_kit.summary_row()
        assert row["scenario"] == "speed-kit"
        assert row["violations"] == 0
        assert "plt_p50_ms" in row


class TestAblations:
    def test_purge_only_keeps_running(self, workload):
        result = run_scenario(workload, Scenario.SPEED_KIT_PURGE_ONLY)
        assert result.page_views > 0
        # Without a sketch, staleness is bounded by TTLs, not Δ: the
        # checker treats it as expiration-based (no violations).
        assert result.delta_violations == 0

    def test_sketch_only_keeps_coherence_bound(self, workload):
        result = run_scenario(workload, Scenario.SPEED_KIT_SKETCH_ONLY)
        assert result.delta_violations == 0

    @pytest.mark.parametrize(
        "scenario, term",
        [
            (Scenario.SPEED_KIT_PURGE_ONLY, "unjudged"),
            (Scenario.SPEED_KIT_SKETCH_ONLY, "page_ttl"),
        ],
        ids=["purge-only-judged", "sketch-only-without-ttl"],
    )
    def test_ablation_gates_trip(self, workload, monkeypatch, scenario, term):
        """Teeth for the two gates above: without its ``term`` the
        ablation's bound is too tight for its TTL-bounded staleness."""
        mutate_delta_term(monkeypatch, term)
        assert run_scenario(workload, scenario).delta_violations > 0

    def test_no_segments_breaks_personalization(self, workload, speed_kit):
        result = run_scenario(workload, Scenario.SPEED_KIT_NO_SEGMENTS)
        # Without segment rewriting, logged-in users receive anonymous
        # fallback content — fast, but wrong. Full Speed Kit stays
        # fully personalized.
        assert speed_kit.personalization_rate() == 1.0
        assert result.personalization_rate() < 0.5

    def test_classic_cdn_is_fully_personalized(self, classic_cdn):
        # The baseline is *correct* (identity-personalized renders) —
        # its problem is speed, not correctness.
        assert classic_cdn.personalization_rate() == 1.0

    def test_determinism_same_seed_same_results(self, workload, speed_kit):
        again = run_scenario(workload, Scenario.SPEED_KIT)
        assert sorted(again.plt.values) == sorted(speed_kit.plt.values)
        assert again.origin_requests == speed_kit.origin_requests
