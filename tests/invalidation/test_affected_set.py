"""One affected set per change: what is bumped is what is invalidated.

Every document change resolves to the resources it changes. The origin
bumps their versions (the history the Δ-checker judges by) and drops
their renditions; the invalidation pipeline reports the same resources
to the Cache Sketch and the TTL estimator and purges them from the CDN.
Replaying traced episodes of the shipped sites, for every write instant:

* the version keys whose history gained an entry at that instant are
  exactly the ``resources`` of the ``invalidation`` spans of the writes
  at that instant, counted with multiplicity — so a key gains exactly
  one entry per change that affects it;
* a change that affects nothing starts no span and counts one
  ``invalidation.no_op_changes``.

Writes are grouped by instant because one instant may carry several
changes: a flash sale reprices its items at once, and an erase deletes
every document of its subject at once.
"""

import random
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from benchmarks.perf.workloads import build_episodes
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.workload import (
    CatalogConfig,
    FlashSaleConfig,
    MediaPageBuilder,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    build_ecommerce_site,
    build_media_site,
    generate_catalog,
    generate_users,
    make_flash_sale_trace,
)


def small_world(n_users=12):
    catalog = generate_catalog(CatalogConfig(n_products=30), random.Random(0))
    users = generate_users(
        UserPopulationConfig(n_users=n_users, consent_fraction=1.0),
        random.Random(1),
    )
    return catalog, users


def perf_episode(name, duration, seed=0):
    (episode,) = build_episodes(name, seed=seed, duration=duration, count=1)
    return episode.spec, episode.catalog, episode.users, episode.trace, {}


def media_episode():
    catalog, users = small_world()
    config = WorkloadConfig(duration=600.0, session_rate=0.1, write_rate=0.2)
    trace = WorkloadGenerator(catalog, users, config).generate(random.Random(2))
    site = {"site_factory": build_media_site, "page_builder": MediaPageBuilder()}
    return ScenarioSpec(Scenario.SPEED_KIT), catalog, users, trace, site


def flash_sale_episode():
    catalog, users = small_world(n_users=20)
    sale = FlashSaleConfig(start=200.0, end=400.0, spike_rate=0.8)
    config = WorkloadConfig(duration=600.0, session_rate=0.2)
    trace = make_flash_sale_trace(catalog, users, config, sale, random.Random(2))
    return ScenarioSpec(Scenario.SPEED_KIT), catalog, users, trace, {}


EPISODES = {
    "hit-path": lambda: perf_episode("hit-path", 480.0),
    "population": lambda: perf_episode("population", 240.0),
    # Seed 5: its erase deletes a cart, so a GDPR delete is covered.
    "storm": lambda: perf_episode("storm", 300.0, seed=5),
    "media-site": media_episode,
    "flash-sale": flash_sale_episode,
}


def replay(name):
    """Run one traced episode; returns the runner and the instant of
    every document change, in order."""
    spec, catalog, users, trace, site = EPISODES[name]()
    changes = []
    factory = site.pop("site_factory", build_ecommerce_site)

    def observed_site(catalog, store_backend=None):
        built = factory(catalog, store_backend=store_backend)
        built.store.subscribe(lambda event: changes.append(event.at))
        return built

    runner = SimulationRunner(
        replace(spec, trace_requests=True),
        catalog,
        users,
        trace,
        site_factory=observed_site,
        **site,
    )
    runner.run()
    return runner, changes


def bumps_by_instant(versions):
    """instant -> Counter of the version keys that gained an entry then
    (a registration is version 1, not a bump)."""
    bumps = defaultdict(Counter)
    for key in versions.known_resources():
        for at, version in versions.history(key):
            if version > 1:
                bumps[at][key] += 1
    return bumps


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_every_bumped_key_is_invalidated_once_per_change(name):
    runner, changes = replay(name)
    changes_at = Counter(changes)
    spans_at = defaultdict(list)
    for span in runner.tracer.spans:
        if span.name == "invalidation":
            spans_at[span.attrs["write_at"]].append(span.attrs["resources"])
    bumps = bumps_by_instant(runner.server.versions)
    assert len(changes) > 5 and spans_at, "the episode exercised no writes"

    assert set(spans_at) <= set(changes_at)
    assert set(bumps) <= set(changes_at)
    for at in sorted(changes_at):
        resources = spans_at.get(at, [])
        assert all(r and len(set(r)) == len(r) for r in resources), at
        assert len(resources) <= changes_at[at], at
        invalidated = Counter(key for keys in resources for key in keys)
        assert invalidated == bumps.get(at, Counter()), f"write at {at}"

    no_ops = runner.metrics.get_counter("invalidation.no_op_changes")
    no_op_count = no_ops.value if no_ops is not None else 0
    assert no_op_count == len(changes) - sum(map(len, spans_at.values()))
