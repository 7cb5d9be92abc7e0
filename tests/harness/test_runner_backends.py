"""End-to-end replay with each storage engine behind every tier."""

import random

import pytest

from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    build_media_site,
    generate_catalog,
    generate_users,
)
from tests.harness.keeping import KeepingRunner

BACKENDS = {
    "inmemory": BackendSpec(kind="inmemory"),
    "sharded": BackendSpec(kind="sharded", n_shards=4),
    "remote": BackendSpec(kind="remote", seed=1),
}


@pytest.fixture(scope="module")
def workload():
    catalog = generate_catalog(CatalogConfig(n_products=40), random.Random(0))
    users = generate_users(
        UserPopulationConfig(n_users=12, consent_fraction=1.0),
        random.Random(1),
    )
    config = WorkloadConfig(
        duration=600.0,
        session_rate=0.08,
        mean_session_length=4.0,
        think_time_mean=10.0,
        write_rate=0.05,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(2)
    )
    return catalog, users, trace


def run_with(workload, backend, scenario=Scenario.SPEED_KIT):
    catalog, users, trace = workload
    spec = ScenarioSpec(scenario=scenario, backend=backend)
    return SimulationRunner(spec, catalog, users, trace).run()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_speed_kit_runs_on_each_engine(workload, name):
    result = run_with(workload, BACKENDS[name])
    assert result.page_views > 0
    assert result.cache_hit_ratio() > 0
    assert result.delta_violations == 0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_classic_cdn_runs_on_each_engine(workload, name):
    result = run_with(
        workload, BACKENDS[name], scenario=Scenario.CLASSIC_CDN
    )
    assert result.page_views > 0
    assert result.cache_hit_ratio() > 0


def test_engine_choice_preserves_caching_behaviour(workload):
    """Local engines are behaviourally identical: same hit counts.

    The sharded engine only changes *where* an entry lives, not what is
    cached — so hit ratios and origin load must match the classic
    engine exactly (no per-shard caps configured here).
    """
    inmemory = run_with(workload, BACKENDS["inmemory"])
    sharded = run_with(workload, BACKENDS["sharded"])
    assert inmemory.cache_hit_ratio() == pytest.approx(
        sharded.cache_hit_ratio()
    )
    assert inmemory.origin_requests == sharded.origin_requests


def test_remote_engine_slows_page_loads(workload):
    """Per-operation storage cost must surface in PLT."""
    local = run_with(workload, BACKENDS["inmemory"])
    remote = run_with(
        workload,
        # Exaggerated latencies so the ordering is decisive on a
        # small workload.
        BackendSpec(
            kind="remote", read_latency=0.02, write_latency=0.03, seed=1
        ),
    )
    assert remote.plt.percentile(50) > local.plt.percentile(50)
    # Cost does not change *what* gets cached.
    assert remote.origin_requests == local.origin_requests


def test_default_spec_matches_no_spec(workload):
    """backend=None and an explicit inmemory spec are the same stack."""
    plain = run_with(workload, None)
    explicit = run_with(workload, BACKENDS["inmemory"])
    assert plain.plt.percentile(50) == pytest.approx(
        explicit.plt.percentile(50)
    )
    assert plain.origin_requests == explicit.origin_requests


class TestSiteFactoryContract:
    """``site_factory(catalog, store_backend=None)`` is called as
    declared: the selected engine reaches the origin's document store,
    and an error inside the factory is the caller's to see."""

    def test_the_selected_engine_is_the_origins(self, workload):
        catalog, users, trace = workload
        handed = []

        def factory(catalog, store_backend=None):
            handed.append(store_backend)
            return build_media_site(catalog, store_backend=store_backend)

        for backend in (None, BACKENDS["sharded"]):
            runner = SimulationRunner(
                ScenarioSpec(scenario=Scenario.NO_CACHE, backend=backend),
                catalog,
                users,
                trace,
                site_factory=factory,
            )
            runner._build()
        assert handed[0] is None
        assert type(handed[1]).__name__ == "ShardedBackend"

    def test_a_type_error_inside_the_factory_is_not_swallowed(self, workload):
        """It used to be: the origin was then built on the default
        engine, silently."""
        catalog, users, trace = workload

        def factory(catalog, store_backend=None):
            if store_backend is not None:
                len(None)  # a bug in the factory, not in its signature
            return build_media_site(catalog)

        runner = SimulationRunner(
            ScenarioSpec(
                scenario=Scenario.NO_CACHE, backend=BACKENDS["sharded"]
            ),
            catalog,
            users,
            trace,
            site_factory=factory,
        )
        with pytest.raises(TypeError, match="has no len"):
            runner._build()


def test_workers_share_the_runs_config_and_scheme(workload):
    catalog, users, trace = workload
    runner = KeepingRunner(
        ScenarioSpec(scenario=Scenario.SPEED_KIT, backend=BACKENDS["sharded"]),
        catalog,
        users,
        trace,
    )
    runner.run()
    workers = [stack.worker for stack in runner.client_stacks().values()]
    assert len(workers) > 1 and None not in workers
    assert len({id(worker.config) for worker in workers}) == 1
    assert len({id(worker.segments.scheme) for worker in workers}) == 1
    assert workers[0].config.sketch_refresh_interval == runner.spec.delta
    # ... while everything that holds a user's state stays per client.
    assert len({id(worker.vault) for worker in workers}) == len(workers)
    assert len({id(worker.fallback.cache) for worker in workers}) == len(
        workers
    )
