"""Subject-access reports (Art. 15): where does the user's data live?"""

import pytest

from repro.gdpr import ErasureCoordinator
from repro.http.messages import Response, Status
from repro.origin.store import DocumentStore
from repro.txn import TxnRegistry
from repro.workload.trace import AccessUser

from tests.gdpr.test_erasure_completeness import SEEDS, run_config


class TestAccessReports:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_reports_the_origin_cart_documents(self, seed):
        runner = run_config("sync-remote", seed)
        # A logged-in user who was NOT erased still has origin docs.
        erased = set(runner.gdpr.erased_users)
        survivors = [
            key
            for key, doc in runner.server.site.store.backend.scan()
            if "carts/" in key
        ]
        assert survivors, "workload produced no cart documents"
        user_id = survivors[0].rsplit("/", 1)[-1]
        assert user_id not in erased
        report = runner.gdpr.access(user_id)
        assert report.locations >= 1
        assert any("carts" in key for key in report.origin_docs)

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_access_after_erase_reports_nothing(self, seed):
        runner = run_config("sync-remote", seed)
        assert runner.gdpr.erased_users
        for user_id in runner.gdpr.erased_users:
            assert runner.gdpr.access(user_id).locations == 0

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_access_sees_planted_cache_entries(self, seed):
        runner = run_config("write-behind", seed)
        user_id = "uaccess"
        key = f"/injected/carts/{user_id}"
        pop_name, pop = next(iter(runner.cdn.pops.items()))
        pop.store.put(
            key,
            Response(
                status=Status.OK, body=f"cart of {user_id}", version=1
            ),
            runner.env.now,
        )
        report = runner.gdpr.access(user_id)
        assert report.cache_entries.get(f"edge:{pop_name}") == [key]
        # The acknowledged-but-unflushed mutation is disclosed too.
        assert key in report.queued.get(f"edge:{pop_name}", [])
        runner.gdpr.erase(user_id)
        assert runner.gdpr.access(user_id).locations == 0

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_access_mutates_nothing(self, seed):
        runner = run_config("sync-remote", seed)
        before = {
            key for key, _ in runner.server.site.store.backend.scan()
        }
        survivors = sorted(
            key.rsplit("/", 1)[-1] for key in before if "carts/" in key
        )
        assert survivors
        first = runner.gdpr.access(survivors[0])
        second = runner.gdpr.access(survivors[0])
        after = {
            key for key, _ in runner.server.site.store.backend.scan()
        }
        assert after == before
        assert first.origin_docs == second.origin_docs

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_workload_access_requests_were_counted(self, seed):
        runner = run_config("sync-remote", seed)
        assert runner.result.accesses == sum(
            isinstance(event, AccessUser) for event in runner.trace.events
        )
        assert (
            runner.metrics.counter("gdpr.access.count").value
            >= runner.result.accesses
        )


def reported_tiers(report):
    """The tier labels a subject-access report discloses data in,
    spelled the way the completeness check labels them."""
    tiers = {*report.cache_entries, *report.queued}
    for tier, found in (
        ("origin", report.origin_docs),
        ("origin-renditions", report.renditions),
        ("replication", report.replicas_in_flight),
        ("sketch", report.sketch_keys),
        ("txn-buffers", report.txn_buffers),
    ):
        if found:
            tiers.add(tier)
    return tiers


class TestTheReportNamesEveryTier:
    """Art. 15 discloses every place the Art. 17 completeness check
    would look: whatever ``residuals`` finds, ``access`` reports."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_every_residual_tier_is_reported(self, seed):
        runner = run_config("sync-remote", seed)
        renditions = 0
        for user in runner.users.users:
            report = runner.gdpr.access(user.user_id)
            residuals = runner.gdpr.residuals(user.user_id)
            assert set(residuals) <= reported_tiers(report), user.user_id
            renditions += len(report.renditions)
        # The run really left renditions naming its users behind.
        assert renditions > 0

    def test_a_buffered_transaction_read_is_reported(self):
        registry = TxnRegistry()
        gdpr = ErasureCoordinator(store=DocumentStore(), txn_registry=registry)
        context = registry.begin("u1")
        registry.buffer(
            context,
            "carts/u1",
            Response(status=Status.OK, body="cart of u1", version=1),
        )
        report = gdpr.access("u1")
        assert report.txn_buffers == ["carts/u1"]
        assert report.locations == 1
        assert set(gdpr.residuals("u1")) == reported_tiers(report)
        registry.finish(context)
        assert gdpr.access("u1").locations == 0
