"""The completeness property behind the GDPR compliance gate.

Two complementary attacks on the same claim — after ``erase(user)``,
no tier of the stack can serve that user's bytes:

1. **Full-stack replays.** A GDPRbench-style workload (erase and
   subject-access requests interleaved with organic traffic) runs
   under every asynchronous-propagation configuration — synchronous
   remote storage, batched pipelining, write-behind drains, async PoP
   replication, fault injection, and combinations. Every erase must
   report zero residuals, and a post-run deep re-walk must still come
   back empty.

2. **Adversarial injection.** The organic workload keeps identity out
   of shared caches by design (that is the paper's scrubber at work),
   so these tests plant user-keyed and user-valued entries directly
   into every tier — edge PoPs, browser and service-worker caches,
   write-behind flush queues, in-flight replicas, the Cache Sketch —
   and prove one ``erase`` call hunts all of them down.
"""

import random

import pytest

from repro.faults import PROFILES, RetryPolicy
from repro.gdpr import UserDataMatcher, user_hash
from repro.gdpr.erasure import AccessReport, ErasureReport
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http.messages import Response, Status
from repro.storage import BackendSpec
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)
from tests.gdpr.reference import (
    reachable_values,
    reference_residuals,
    stale_identity_texts,
)
from tests.harness.keeping import KeepingRunner, private_tiers

SEEDS = (3, 11)

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
    "faulted": dict(
        fault_profile=PROFILES["outage"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
    "chaos-write-behind": dict(
        fault_profile=PROFILES["chaos"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
        backend=BackendSpec(kind="write-behind"),
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
        cart_add_prob=0.5,
        erase_fraction=0.5,
        access_rate=0.02,
    )
    trace = WorkloadGenerator(catalog, users, config).generate(
        random.Random(seed + 2)
    )
    return catalog, users, trace


def run_config(config, seed):
    """One (config, seed) replay, cached — returns the live runner."""
    cached = _RUNS.get((config, seed))
    if cached is None:
        cached = _RUNS[(config, seed)] = fresh_run(config, seed)
    return cached


class _AuditedRunner(KeepingRunner):
    """A replay that keeps each data-subject report its trace asked
    for, beside the client tiers the walk saw at that instant."""

    def run(self):
        self.gdpr_log = []
        try:
            return super().run()
        finally:
            # Requests made after the replay are the tests' own.
            del self.gdpr.erase, self.gdpr.access

    def _build(self):
        super()._build()
        for name in ("erase", "access"):
            setattr(self.gdpr, name, self._audited(getattr(self.gdpr, name)))

    def _audited(self, serve):
        def audited(user_id):
            report = serve(user_id)
            self.gdpr_log.append((report, sorted(self._client_cache_stores())))
            return report

        return audited


def _spec(config, seed):
    return ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        **CONFIGS[config],
    )


def fresh_run(config, seed):
    """An uncached replay, for tests that leave the runner broken."""
    catalog, users, trace = _workload(seed)
    runner = _AuditedRunner(_spec(config, seed), catalog, users, trace)
    runner.run()
    return runner


_PAUSED = {}


def paused_run(config, seed):
    """One (config, seed) replay stopped halfway, cached: every user
    with an event left still has a live client stack, so an erase
    walks their device caches."""
    runner = _PAUSED.get((config, seed))
    if runner is None:
        catalog, users, trace = _workload(seed)
        runner = SimulationRunner(_spec(config, seed), catalog, users, trace)
        runner._build()
        runner.env.process(runner._dispatcher())
        runner.env.run(until=trace.duration / 2)
        _PAUSED[(config, seed)] = runner
    return runner


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return request.param


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def runner(request, config):
    return run_config(config, request.param)


class TestWorkloadErasure:
    def test_schedule_exercises_the_gdpr_path(self, runner):
        """Guard against vacuous passes: erasures and accesses really
        replayed, and the erased users had origin data to remove."""
        assert runner.result.erasures > 0
        assert runner.result.accesses > 0
        assert runner.result.erasure_removed > 0

    def test_every_erase_reported_zero_residuals(self, runner):
        assert runner.result.erasure_residuals == 0
        assert runner.metrics.counter("gdpr.erase.residuals").value == 0
        # ... over walks that reached live devices.
        assert all(
            private_tiers(tiers)
            for report, tiers in runner.gdpr_log
            if isinstance(report, ErasureReport)
        )

    def test_post_run_deep_walk_finds_nothing(self, runner):
        """Re-audit after the run: drained queues, arrived replicas and
        expiries must not have resurrected a single byte. Asked twice:
        of the coordinator, and of the memo-free recursive oracle, which
        reads the stored bytes and not the identity texts kept on them."""
        assert runner.gdpr.erased_users
        assert private_tiers(runner.client_cache_stores())
        for user_id in runner.gdpr.erased_users:
            assert runner.gdpr.residuals(user_id) == {}
            assert reference_residuals(runner, user_id) == []

    def test_stored_values_were_replaced_never_edited(self, runner):
        """The invariant the kept identity texts rest on: whatever a
        GDPR walk flattened during the run still flattens to the same
        text now — in every tier, queue, rendition and buffer."""
        kept = [
            value._identity_text
            for _, _, value in reachable_values(runner)
            if getattr(value, "_identity_text", None) is not None
        ]
        assert kept  # the run's walks really left texts behind
        assert private_tiers(runner.client_cache_stores())
        assert stale_identity_texts(runner) == []

    def test_erasure_latency_was_accounted(self, runner):
        """One latency observation per erase call. Compared against the
        erase counter, not ``result.erasures``: other test modules may
        have issued further manual erases on this cached runner."""
        latency = runner.metrics.histogram("gdpr.erase.latency")
        count = runner.metrics.counter("gdpr.erase.count").value
        assert count >= runner.result.erasures > 0
        assert latency.count == count

    def test_staleness_guarantee_survives_the_gdpr_mix(self, runner):
        """Interleaved erasures must not cost coherence elsewhere."""
        runner.checker.assert_delta_atomic()

    def test_no_metric_is_named_after_a_user(self, runner):
        """Telemetry is a place an id cannot be, by construction: every
        collector — counter, gauge, histogram, series — is named
        per tier, per PoP or per kind, so an erase leaves no series
        behind that is keyed by the erased user (nor by anyone else)."""
        names = metric_names(runner.metrics)
        assert len(names) > 30
        assert runner.gdpr.erased_users
        for user in runner.users.users:
            matcher = UserDataMatcher(user.user_id)
            assert [n for n in names if matcher.matches_key(n)] == []


class TestPrivateTiers:
    """A private tier — the service-worker or browser cache on one
    user's device — holds only its owner's data. That is why a device
    whose user has left can leave the erase and access walk: no
    request for anyone else could find anything there."""

    def test_no_request_reaches_into_another_users_device(self, runner):
        others_walked = 0
        assert any(isinstance(r, ErasureReport) for r, _ in runner.gdpr_log)
        assert any(isinstance(r, AccessReport) for r, _ in runner.gdpr_log)
        for report, tiers in runner.gdpr_log:
            others_walked += sum(
                _owner(tier) != report.user_id for tier in private_tiers(tiers)
            )
            if isinstance(report, ErasureReport):
                found = (*report.cache_removed, *report.queued_scrubbed)
            else:
                found = (*report.cache_entries, *report.queued)
            for label in private_tiers(found):
                assert _owner(label) == report.user_id, (
                    type(report).__name__,
                    report.user_id,
                    label,
                )
        assert others_walked > 0

    def test_a_device_holds_no_one_elses_bytes(self, runner):
        devices = set(private_tiers(runner.client_cache_stores()))
        stored = [
            (tier, key, value)
            for tier, key, value in reachable_values(runner)
            if tier in devices
        ]
        assert stored
        matchers = [UserDataMatcher(user.user_id) for user in runner.users.users]
        for tier, key, value in stored:
            assert [
                matcher.user_id
                for matcher in matchers
                if matcher.user_id != _owner(tier)
                and matcher.matches_entry(key, value)
            ] == [], (tier, key)


def _owner(label):
    """The user a device-cache label (``sw:<uid>``) belongs to."""
    return label.partition(":")[2]


def metric_names(registry):
    """Every collector's name, whatever its type."""
    return sorted(registry.snapshot())


def test_the_metric_set_does_not_grow_with_the_population():
    """Ten times the users, the same collectors: what differs between a
    100-user and a 1,000-user replay of one spec is bounded by the
    closed label sets (page and connection kinds), not by the users."""

    def replay(n_users):
        catalog = generate_catalog(
            CatalogConfig(n_products=30), random.Random(3)
        )
        users = generate_users(
            UserPopulationConfig(n_users=n_users), random.Random(4)
        )
        config = WorkloadConfig(
            duration=300.0,
            session_rate=0.5,
            write_rate=0.08,
            erase_fraction=0.2,
            access_rate=0.02,
        )
        trace = WorkloadGenerator(catalog, users, config).generate(
            random.Random(5)
        )
        spec = ScenarioSpec(scenario=Scenario.SPEED_KIT, seed=3)
        runner = SimulationRunner(spec, catalog, users, trace)
        runner.run()
        kinds = {event.page_kind for event in trace.page_views()} | {
            users.by_id(user_id).connection for user_id in trace.users_seen()
        }
        return runner.metrics, len(trace.users_seen()), kinds

    few, few_seen, _ = replay(100)
    many, many_seen, kinds = replay(1000)
    assert many_seen > 1.5 * few_seen
    assert abs(
        len(many.counter_names()) - len(few.counter_names())
    ) <= len(kinds)
    assert len(set(metric_names(many)) ^ set(metric_names(few))) <= len(kinds)


def _inject_everywhere(runner, user_id):
    """Plant user-identifying bytes in every tier; return the labels
    that received an injection."""
    now = runner.env.now
    key = f"/injected/carts/{user_id}"
    tiers = []
    for name, pop in runner.cdn.pops.items():
        response = Response(
            status=Status.OK,
            body=f"cart of {user_id}",
            version=1,
            served_by=name,
            generated_at=now,
        )
        pop.store.put(key, response, now)
        tiers.append(f"edge:{name}")
    for label, store in runner._client_cache_stores().items():
        response = Response(
            status=Status.OK,
            body={"viewer": user_id},
            version=1,
            generated_at=now,
        )
        store.put(key, response, now)
        tiers.append(label)
    if runner.sketch is not None:
        runner.sketch.report_read(key, expires_at=now + 300.0, now=now)
    return tiers


class TestInjectedErasure:
    """Defense in depth: even bytes that bypassed the scrubber die."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_planted_entries_are_hunted_down_in_every_tier(self, seed):
        runner = paused_run("write-behind-replicated", seed)
        user_id = "uinjected"
        tiers = _inject_everywhere(runner, user_id)
        assert private_tiers(tiers)
        assert runner.gdpr.residuals(user_id)  # they are really there
        report = runner.gdpr.erase(user_id)
        assert report.complete, report.residuals
        assert runner.gdpr.residuals(user_id) == {}
        for label in tiers:
            assert report.cache_removed.get(label, 0) >= 1, label
        assert report.sketch_keys_forgotten >= 1

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_planted_in_flight_replicas_are_dropped(self, seed):
        runner = run_config("replicated", seed)
        user_id = "uinjected2"
        replicator = runner.cdn.replicator
        key = f"/inflight/carts/{user_id}"
        response = Response(
            status=Status.OK, body=f"cart of {user_id}", version=1
        )
        source = next(iter(runner.cdn.pops))
        replicator.on_admit(source, key, response, runner.env.now)
        assert replicator.in_flight_matching(lambda k: user_id in k)
        report = runner.gdpr.erase(user_id)
        assert report.replicas_dropped >= 1
        assert report.complete, report.residuals

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_bystander_entries_survive_a_targeted_erase(self, seed):
        runner = run_config("write-behind-replicated", seed)
        now = runner.env.now
        victim, bystander = "uvictim", "uvictim2"
        pop = next(iter(runner.cdn.pops.values()))
        for uid in (victim, bystander):
            pop.store.put(
                f"/injected/carts/{uid}",
                Response(
                    status=Status.OK, body=f"cart of {uid}", version=1
                ),
                now,
            )
        runner.gdpr.erase(victim)
        assert runner.gdpr.residuals(victim) == {}
        # The prefix-sharing bystander's entry is untouched.
        assert pop.store.peek(f"/injected/carts/{bystander}") is not None

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_a_user_named_like_a_field_takes_no_bystander(self, seed):
        """Attribute names are schema, not data: ``erase("hits")`` used
        to match every ``CacheEntry`` and empty every tier."""
        runner = paused_run("write-behind-replicated", seed)
        now = runner.env.now
        pop = next(iter(runner.cdn.pops.values()))
        for uid in ("hits", "ubystander"):
            pop.store.put(
                f"/injected/carts/{uid}",
                Response(
                    status=Status.OK, body=f"cart of {uid}", version=1
                ),
                now,
            )
        docs = len(runner.gdpr.store.backend)
        cached = {
            label: len(tier)
            for label, tier in runner.gdpr._cache_tiers().items()
        }
        assert private_tiers(cached)
        report = runner.gdpr.erase("hits")
        assert report.complete, report.residuals
        assert report.origin_docs == [] and report.renditions_dropped == 0
        assert sum(report.cache_removed.values()) == 1
        assert pop.store.peek("/injected/carts/ubystander") is not None
        assert len(runner.gdpr.store.backend) == docs
        cached[next(iter(report.cache_removed))] -= 1
        assert cached == {
            label: len(tier)
            for label, tier in runner.gdpr._cache_tiers().items()
        }

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_erase_is_idempotent(self, seed):
        runner = run_config("sync-remote", seed)
        user_id = "uinjected3"
        pop = next(iter(runner.cdn.pops.values()))
        pop.store.put(
            f"/injected/carts/{user_id}",
            Response(
                status=Status.OK, body=f"cart of {user_id}", version=1
            ),
            runner.env.now,
        )
        first = runner.gdpr.erase(user_id)
        second = runner.gdpr.erase(user_id)
        assert first.complete and second.complete
        assert second.entries_removed == 0


def _view_cart_block(runner, user_id):
    """An identified request straight to the origin: it pre-builds a
    rendition of the user's cart block (body names the user)."""
    from repro.http import Headers, Request, URL

    request = Request.get(
        URL.parse("/api/blocks/cart"),
        headers=Headers({"X-User-Id": user_id}),
    )
    response = runner.server.handle(request, runner.env.now)
    assert response.status == Status.OK and user_id in response.body
    return response


class TestRenditionTier:
    """The origin's rendition table holds rendered cart/profile bytes:
    it is walked, erased and audited like every other tier."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_organic_traffic_really_builds_user_renditions(self, seed):
        """Guard against a vacuous tier: logged-in users who were not
        erased still have renditions naming them after the run."""
        runner = run_config("sync-remote", seed)
        survivors = [
            label
            for user in runner.users.users
            if user.user_id not in runner.gdpr.erased_users
            for label in runner.gdpr.residuals(user.user_id).get(
                "origin-renditions", []
            )
        ]
        assert survivors

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_identity_only_rendition_is_erased(self, seed):
        """No cart, no profile: nothing to delete, so no change event —
        the rendition still names the user and must go."""
        runner = run_config("write-behind-replicated", seed)
        user_id = "urendition1"
        _view_cart_block(runner, user_id)
        found = runner.gdpr.residuals(user_id)
        assert list(found) == ["origin-renditions"], found
        report = runner.gdpr.erase(user_id)
        assert report.origin_docs == []
        assert report.renditions_dropped == 1
        assert report.complete, report.residuals
        assert runner.gdpr.residuals(user_id) == {}

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_cart_rendition_dies_with_the_cart_document(self, seed):
        runner = run_config("write-behind-replicated", seed)
        user_id = "urendition2"
        runner.server.write(
            "carts", user_id, {"items": ["p1"]}, at=runner.env.now
        )
        assert '"items": ["p1"]' in _view_cart_block(runner, user_id).body
        report = runner.gdpr.erase(user_id)
        assert report.origin_docs == [f"carts/{user_id}"]
        # The store.delete change event already dropped it.
        assert report.renditions_dropped == 0
        assert report.complete, report.residuals

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_a_broken_rendition_drop_trips_the_gate(self, seed, monkeypatch):
        """Teeth. Two rules empty the tier: the change event of each
        deleted document drops the renditions built from it, and
        ``erase_renditions`` takes whatever still names the user. With
        both disabled the cart bytes survive and the erase says so;
        with only the second disabled an identity-only rendition does."""
        from repro.origin import OriginServer

        runner = fresh_run("write-behind", seed)
        server = runner.server
        listeners = server.site.store._listeners
        # The store holds bound methods weakly: find the server's by
        # what its reference resolves to.
        drop_on_change = next(
            index
            for index, listener in enumerate(listeners)
            if listener() == server._on_change
        )

        def bump_but_forget_to_drop(event):
            kept = {k: dict(v) for k, v in server._renditions.items()}
            server._on_change(event)
            server._renditions.update(kept)

        with_cart, identity_only = "urendition3", "urendition4"
        server.write("carts", with_cart, {"items": ["p1"]}, at=runner.env.now)
        _view_cart_block(runner, with_cart)
        _view_cart_block(runner, identity_only)

        monkeypatch.setattr(
            OriginServer, "erase_renditions", lambda self, predicate: 0
        )
        broken = runner.gdpr.erase(identity_only)
        assert not broken.complete
        assert list(broken.residuals) == ["origin-renditions"]

        listeners[drop_on_change] = bump_but_forget_to_drop
        broken = runner.gdpr.erase(with_cart)
        assert not broken.complete
        assert list(broken.residuals) == ["origin-renditions"]
        assert (
            runner.metrics.counter("gdpr.erase.residuals").value
            >= broken.residual_count
            > 0
        )

        # Repaired, the same two erases come back clean.
        listeners[drop_on_change] = server._on_change
        monkeypatch.undo()
        assert runner.gdpr.erase(identity_only).complete
        assert runner.gdpr.erase(with_cart).complete
        assert runner.gdpr.residuals(with_cart) == {}


class TestIdentityTextGate:
    """Teeth for ``test_stored_values_were_replaced_never_edited``."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_an_in_place_edit_trips_the_audit(self, seed):
        """Edit a stored response *in place* after a walk has flattened
        its entry: the kept text is now stale, the matcher no longer
        sees the user, and the erase reports complete over surviving
        bytes. The audit names the entry; the oracle finds the bytes."""
        runner = fresh_run("write-behind", seed)
        user_id = "ustale"
        pop = next(iter(runner.cdn.pops.values()))
        key = "/injected/page"
        pop.store.put(
            key,
            Response(status=Status.OK, body="nobody's page", version=1),
            runner.env.now,
        )
        assert runner.gdpr.residuals(user_id) == {}  # flattens the entry
        assert stale_identity_texts(runner) == []

        pop.store.peek(key).response.body = f"cart of {user_id}"

        stale = stale_identity_texts(runner)
        assert len(stale) == 1 and stale[0].endswith(key), stale
        assert runner.gdpr.erase(user_id).complete  # fooled by the memo
        assert pop.store.peek(key) is not None
        assert [
            where for where in reference_residuals(runner, user_id)
            if where.endswith(key)
        ]

        # Replaced instead of edited — what the stack really does — the
        # same bytes are found and removed.
        pop.store.put(
            key,
            Response(
                status=Status.OK, body=f"cart of {user_id}", version=2
            ),
            runner.env.now,
        )
        assert runner.gdpr.erase(user_id).complete
        assert pop.store.peek(key) is None
        assert stale_identity_texts(runner) == []
        assert reference_residuals(runner, user_id) == []


def _kept_by(checker):
    """What a coherence checker keeps of its own: everything but the
    origin it consults for ground truth (walked as a tier itself)."""
    return {name: value for name, value in vars(checker).items() if name != "server"}


class TestCheckerTier:
    """The coherence checkers keep only the reads that broke the Δ
    bound, each naming its client and resource key. The erase walk
    pseudonymises them the way the span export is scrubbed."""

    @staticmethod
    def inject_violation(runner, user_id):
        """A genuine violation: ``user_id``'s cart block is read at a
        version superseded longer than Δ ago."""
        response = _view_cart_block(runner, user_id)
        now = runner.env.now
        runner.server.write("carts", user_id, {"items": ["p1"]}, at=now)
        staleness = runner.checker.record_read(
            response, now + runner.checker.delta + 5.0, client=user_id
        )
        assert staleness > runner.checker.delta
        assert UserDataMatcher(user_id).matches_value(_kept_by(runner.checker))

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_an_injected_violation_is_pseudonymised(self, seed):
        runner = fresh_run("sync-remote", seed)
        user_id = "uviolated"
        self.inject_violation(runner, user_id)
        violations = len(runner.checker.violations)

        report = runner.gdpr.erase(user_id)

        assert report.complete, report.residuals
        matcher = UserDataMatcher(user_id)
        for checker in (runner.checker, runner.baseline_checker):
            assert not matcher.matches_value(_kept_by(checker))
        # Pseudonymised, not dropped: the verdict and its count stand.
        assert len(runner.checker.violations) == violations
        [record] = [
            record
            for record in runner.checker.violations
            if record.client == user_hash(user_id)
        ]
        assert user_hash(user_id) in record.resource_key
        assert runner.metrics.counter("coherence.violations").value == violations

    def test_a_skipped_pseudonymisation_trips_the_residual_walk(
        self, monkeypatch
    ):
        from repro.gdpr import erasure

        runner = fresh_run("sync-remote", SEEDS[0])
        user_id = "uviolated"
        self.inject_violation(runner, user_id)
        monkeypatch.setattr(
            erasure, "_scrub_value", lambda value, matcher, replacement: value
        )
        report = runner.gdpr.erase(user_id)
        assert list(report.residuals) == ["coherence"]

    def test_no_storm_episode_keeps_a_record_of_an_erased_user(self):
        """Storage limitation on the perf ledger's write-and-erase
        workload: after each episode's erasures, nothing the checkers
        keep names an erased user (before the checkers kept one record
        per read: 52, 50 and 29 of them named the user in episodes
        0-2 at seed 0)."""
        from benchmarks.perf.workloads import build_episodes

        erased = 0
        for episode in build_episodes("storm", 0, count=3):
            runner = SimulationRunner(
                episode.spec, episode.catalog, episode.users, episode.trace
            )
            runner.run()
            assert runner.checker.read_count > 1000
            for user_id in runner.gdpr.erased_users:
                erased += 1
                matcher = UserDataMatcher(user_id)
                for checker in (runner.checker, runner.baseline_checker):
                    assert not matcher.matches_value(_kept_by(checker))
        assert erased >= 3
