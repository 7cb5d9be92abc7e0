"""Property-style staleness invariants across async configurations.

Randomized (seeded-RNG) write/read/purge schedules are replayed through
the full Speed Kit stack under every asynchronous-propagation
configuration — synchronous remote storage, batched pipelining,
write-behind drains, async PoP replication, and the combination — and
the read log of the span export (``reads_from_trace``; the live checker
keeps counts and violations, not a record per read) is checked against
the origin's ground-truth version history for the invariants the
paper's guarantee rests on:

1. **Bounded staleness.** Every Δ-covered read returns a version that
   was current within the configured bound (the base Δ window widened
   by each config's asynchrony terms — see
   ``ScenarioSpec.delta_terms()``). Zero violations, always.
2. **Per-client monotonic reads.** A client that has observed version
   ``v`` of a resource never later reads ``v' < v`` — acks may be
   deferred and replicas may race purges, but no schedule may serve a
   client a version it has already seen superseded.
3. **Exact sketches.** Clients between two filter mutations share one
   flattened snapshot; every download must still be, bit for bit, the
   server's filter at that instant.

The schedules are deterministic per seed, so failures reproduce.
"""

import math
import random

import pytest

from repro.coherence import version_regressions
from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.obs import reads_from_trace
from repro.sketch import ServerCacheSketch
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)
from tests.sketch.test_snapshot_sharing import (
    keep_flattened_filter_across_remove,
    reference_bits,
)

SEEDS = (3, 11)

#: Every asynchronous-propagation configuration under test. All run the
#: full SPEED_KIT scenario; they differ in how far acknowledgement and
#: remote visibility are allowed to drift apart.
CONFIGS = {
    "sync-remote": dict(backend=BackendSpec(kind="remote")),
    "batched-overlap": dict(
        backend=BackendSpec(kind="batched", overlap=True)
    ),
    "write-behind": dict(backend=BackendSpec(kind="write-behind")),
    "replicated": dict(replicate_pops=True, n_regions=3),
    "write-behind-replicated": dict(
        backend=BackendSpec(kind="write-behind"),
        replicate_pops=True,
        n_regions=3,
    ),
    # Fault-injected runs: the guarantee must survive origin outages,
    # flaky links, and failing PoPs — with the bound widened by the
    # stale-if-error grace window and unbounded offline servings
    # excluded from the check.
    "faulted": dict(
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
    "chaos-replicated": dict(
        fault_profile=PROFILES["chaos"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
        replicate_pops=True,
        n_regions=3,
    ),
}

_RUNS = {}


def _workload(seed):
    catalog = generate_catalog(
        CatalogConfig(n_products=30), random.Random(seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=12, consent_fraction=1.0),
        random.Random(seed + 1),
    )
    config = WorkloadConfig(
        duration=600.0,
        session_rate=0.1,
        mean_session_length=4.0,
        think_time_mean=8.0,
        write_rate=0.08,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def replay(config, seed):
    """One (config, seed) replay; returns the live runner, with
    ``sketch_downloads`` holding, per sketch download, whether it
    equalled a memo-free flatten of the server's counters."""
    catalog, users, trace = _workload(seed)
    spec = ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        trace_requests=True,
        **CONFIGS[config],
    )
    runner = SimulationRunner(spec, catalog, users, trace)
    downloads = runner.sketch_downloads = []
    snapshot = ServerCacheSketch.snapshot

    def audited_snapshot(self, now):
        taken = snapshot(self, now)
        downloads.append(taken.filter.to_bytes() == reference_bits(self.filter))
        return taken

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServerCacheSketch, "snapshot", audited_snapshot)
        runner.run()
    return runner


def run_config(config, seed):
    """:func:`replay`, cached."""
    cached = _RUNS.get((config, seed))
    if cached is None:
        cached = _RUNS[(config, seed)] = replay(config, seed)
    return cached


def covered_reads(runner):
    """The Δ-covered reads of the run's span export, each with its
    staleness judged against the origin's version history."""
    versions = runner.server.versions
    reads = []
    for read in reads_from_trace(runner.result.trace_records):
        if not read["covered"]:
            continue
        at = read["read_at"]
        superseded = versions.superseded_at(read["version_key"], read["version"])
        stale = superseded is not None and superseded < at
        reads.append({**read, "staleness": at - superseded if stale else 0.0})
    return reads


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return request.param


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def runner(request, config):
    return run_config(config, request.param)


class TestStalenessInvariants:
    def test_schedule_exercises_the_checker(self, runner):
        """Guard against vacuous passes: reads were checked, the span
        export holds every one of them, and the workload actually
        produced invalidations."""
        assert runner.checker.read_count > 100
        assert len(covered_reads(runner)) == runner.checker.read_count
        assert runner.metrics.counter("invalidation.processed").value > 0

    def test_bound_is_finite(self, runner):
        assert runner.checker.delta < float("inf")

    def test_zero_delta_violations(self, runner):
        runner.checker.assert_delta_atomic()

    def test_every_read_within_configured_bound(self, runner):
        bound = runner.checker.delta
        reads = covered_reads(runner)
        assert len(reads) > 100
        for read in reads:
            assert read["staleness"] <= bound, (
                f"{read['version_key']} v{read['version']} read at "
                f"{read['read_at']:.3f} stale by {read['staleness']:.3f} "
                f"> {bound:.3f}"
            )
        assert max(read["staleness"] for read in reads) == (
            runner.checker.max_staleness()
        )

    def test_reads_are_monotonic_per_client_and_key(self, runner):
        reads = covered_reads(runner)
        assert len(reads) > 100
        regressions = version_regressions(reads)
        assert regressions == [], (
            f"{len(regressions)} version regressions; first: "
            f"{regressions[0]}"
        )

    def test_records_carry_the_client(self, runner):
        reads = covered_reads(runner)
        assert len(reads) > 100
        assert all(read["client"] is not None for read in reads)

    def test_every_downloaded_sketch_is_the_servers_filter(self, runner):
        assert len(runner.sketch_downloads) > 50
        assert all(runner.sketch_downloads)


class TestSketchGateTrips:
    """Teeth for ``test_every_downloaded_sketch_is_the_servers_filter``."""

    def test_a_missed_invalidation_in_remove_is_caught(self, monkeypatch):
        keep_flattened_filter_across_remove(monkeypatch)
        runner = replay("sync-remote", SEEDS[0])
        assert not all(runner.sketch_downloads)


def mutate_delta_term(monkeypatch, name, replacement=lambda spec: None):
    """Mutant: every spec's checked bound with its term ``name``
    replaced by ``replacement(spec)``, or dropped (``None``)."""
    terms = ScenarioSpec.delta_terms

    def mutant(spec):
        edited = (
            replacement(spec) if term[0] == name else term
            for term in terms(spec)
        )
        return tuple(term for term in edited if term is not None)

    monkeypatch.setattr(ScenarioSpec, "delta_terms", mutant)


class TestBoundTermsHaveTeeth:
    """Teeth for ``test_zero_delta_violations``: a bound without the
    sketch's Δ lets violations through, and the report names the terms
    the broken bound was made of. (The other terms' mutants sit beside
    the gate each trips; DESIGN, *Δ-bound accounting*.)"""

    def test_a_bound_without_delta_is_caught(self, monkeypatch):
        mutate_delta_term(monkeypatch, "delta")
        runner = replay("sync-remote", SEEDS[1])
        with pytest.raises(
            AssertionError, match=r"\(Δ=1\.08 = purge_latency 0\.08 \+ in_flight"
        ):
            runner.checker.assert_delta_atomic()


def terms_of(scenario=Scenario.SPEED_KIT, **knobs):
    """``delta_terms()`` of a Δ = 30 spec, as a name → seconds map."""
    knobs.setdefault("delta", 30.0)
    return dict(ScenarioSpec(scenario, **knobs).delta_terms())


#: ``repr(checker.delta)`` per spec, recorded before the bound had named
#: terms (when four runner methods summed it in two branches). Exact
#: strings: a regrouped sum moves the last digit (``61.17999999999999``).
PINNED_BOUNDS = {
    "batched-overlap": "31.08",
    "chaos-replicated": "91.13",
    "faulted": "91.08",
    "replicated": "31.13",
    "sync-remote": "31.08",
    "write-behind": "31.13",
    "write-behind-replicated": "31.18",
    "swr": "61.08",
    "sketch-only": "331.0",
    "storm": "167.85000000000002",
    "write-behind-replicated@60": "61.18",
    "replay-rate-2": "61.09",
}


def pinned_spec(name):
    from benchmarks.perf.workloads import WORKLOADS

    extra = {
        "swr": dict(stale_while_revalidate=True),
        "sketch-only": dict(scenario=Scenario.SPEED_KIT_SKETCH_ONLY),
        "write-behind-replicated@60": dict(
            CONFIGS["write-behind-replicated"], delta=60.0
        ),
        "replay-rate-2": dict(
            delta=60.0,
            stale_if_error=60.0,
            replicate_pops=True,
            n_regions=3,
            time_scale=0.5,
        ),
    }
    if name == "storm":
        return WORKLOADS["storm"].spec
    knobs = dict(scenario=Scenario.SPEED_KIT, delta=30.0)
    knobs.update(CONFIGS.get(name) or extra[name])
    return ScenarioSpec(**knobs)


class TestBoundAccounting:
    """Each term of the checked Δ bound is exactly its configured
    worst-case lag, read off ``ScenarioSpec.delta_terms()``."""

    def test_the_terms_of_the_plain_stack(self):
        assert ScenarioSpec(Scenario.SPEED_KIT, delta=30.0).delta_terms() == (
            ("delta", 30.0),
            ("purge_latency", 0.08),
            ("in_flight", 1.0),
            ("async_propagation", 0.0),
            ("stale_if_error", 0.0),
            ("queue_delay", 0.0),
        )

    def test_write_behind_widens_by_flush_interval(self):
        flush = CONFIGS["write-behind"]["backend"].flush_interval
        assert flush > 0
        terms = terms_of(**CONFIGS["write-behind"])
        assert terms["async_propagation"] == flush

    def test_replication_widens_by_propagation_delay(self):
        terms = terms_of(**CONFIGS["replicated"])
        assert terms["async_propagation"] == 0.05

    def test_both_lags_are_one_pre_summed_term(self):
        flush = CONFIGS["write-behind"]["backend"].flush_interval
        terms = terms_of(**CONFIGS["write-behind-replicated"])
        assert terms["async_propagation"] == flush + 0.05

    def test_stale_if_error_widens_by_grace_window(self):
        assert terms_of(**CONFIGS["faulted"])["stale_if_error"] == 60.0

    def test_swr_base_is_the_workers_budget(self):
        spec = ScenarioSpec(
            Scenario.SPEED_KIT, delta=30.0, stale_while_revalidate=True
        )
        assert spec.delta_terms()[0] == ("swr_budget", 60.0)
        assert spec.swr_budget == 60.0

    def test_sketch_only_waits_out_the_page_ttl(self):
        terms = terms_of(
            Scenario.SPEED_KIT_SKETCH_ONLY, stale_while_revalidate=True
        )
        assert (terms["delta"], terms["page_ttl"]) == (30.0, 300.0)
        assert "purge_latency" not in terms

    def test_admitted_queueing_widens_by_the_queue_bound(self):
        from repro.overload import OVERLOAD_PROFILES

        profile = OVERLOAD_PROFILES["flash-crowd"]
        terms = terms_of(overload_profile=profile, admission=True)
        assert terms["queue_delay"] == profile.queue_delay_bound() > 0

    def test_terms_read_the_time_scaled_spec(self):
        """Δ and the grace scale with the replay rate; the replication
        delay (infrastructure) does not."""
        terms = dict(pinned_spec("replay-rate-2").time_scaled().delta_terms())
        assert terms["delta"] == 30.0
        assert terms["stale_if_error"] == 30.0
        assert terms["async_propagation"] == 0.05

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario.NO_CACHE,
            Scenario.CLASSIC_CDN,
            Scenario.SPEED_KIT_PURGE_ONLY,
        ],
        ids=lambda scenario: scenario.value,
    )
    def test_unjudged_stacks_add_an_infinite_term(self, scenario):
        terms = ScenarioSpec(scenario).delta_terms()
        assert terms[-1] == ("unjudged", math.inf)

    def test_admission_off_queueing_is_unbounded(self):
        from repro.overload import OVERLOAD_PROFILES

        terms = terms_of(overload_profile=OVERLOAD_PROFILES["flash-crowd"])
        assert terms["queue_delay"] == math.inf
        assert "unjudged" not in terms

    @pytest.mark.parametrize("name", sorted(PINNED_BOUNDS))
    def test_checked_bound_is_pinned(self, name):
        catalog, users, trace = _workload(SEEDS[0])
        runner = SimulationRunner(pinned_spec(name), catalog, users, trace)
        runner._build()
        assert repr(runner.checker.delta) == PINNED_BOUNDS[name]
        assert runner.checker.terms == runner.spec.delta_terms()


class TestFaultActivity:
    """The faulted configs really injected faults (not a silent no-op):
    the invariants above are checked during and after actual outages."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_origin_really_went_down(self, seed):
        runner = run_config("faulted", seed)
        assert runner._faults.total_downtime("origin") > 0

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_failures_were_observed_by_clients(self, seed):
        runner = run_config("faulted", seed)
        degraded = runner.metrics.counter("transport.stale_if_error").value
        assert runner.result.failed_responses + degraded > 0

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_chaos_run_stays_available(self, seed):
        runner = run_config("chaos-replicated", seed)
        assert runner.result.availability() > 0.5


class TestReplicationActivity:
    """The replicated configs really replicate (not a silent no-op)."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_replicas_flow_between_pops(self, seed):
        runner = run_config("replicated", seed)
        assert runner.metrics.counter("replication.sent").value > 0
        assert runner.metrics.counter("replication.applied").value > 0

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_purge_races_are_cancelled_not_applied(self, seed):
        """Whenever the pipeline observed in-flight replicas at purge
        time, the replicator dropped them on arrival."""
        runner = run_config("replicated", seed)
        superseded = runner.metrics.counter(
            "invalidation.replicas_superseded"
        ).value
        dropped = runner.metrics.counter(
            "replication.dropped_purged"
        ).value
        assert dropped >= superseded
