"""Erase vs. in-flight validation: scrubbed bytes never resurface.

A serializable transaction buffers its reads while the validation
round trip is outstanding. An erase landing in that window walks the
transaction registry like any other tier: matching buffers are dropped
and poisoned, the coordinator re-fetches the poisoned keys (observing
the post-erase origin), and the erasure report counts the scrubbed
buffers. These tests attack the race both through the public
``ErasureCoordinator.erase`` walk (adversarially injected user-marked
buffers) and through a mid-flight scrub injected between a
transaction's reads and its validation verdict.
"""

import pytest

from repro.harness import RunResult
from repro.http import Headers, Response, Status, URL
from repro.txn import ConsistencyLevel

from tests.txn.conftest import SEED, level_runner

pytestmark = pytest.mark.txn


def _tainted_response(user_id):
    return Response(
        status=Status.OK,
        headers=Headers({"Cache-Control": "no-store"}),
        body={"owner": user_id, "items": [1, 2]},
        url=URL.parse(f"/api/blocks/cart?u={user_id}"),
        generated_at=0.0,
        served_by="origin",
    )


class _MatchEverything:
    """Adversarial matcher: an erase that claims every buffered key."""

    def matches_key(self, key):
        return True

    def matches_value(self, value):
        return True


class TestErasureWalk:
    def test_erase_scrubs_injected_txn_buffers(self):
        runner = level_runner("delta", seed=SEED + 4)
        registry = runner.txn_registry
        context = registry.begin("u1")
        registry.buffer(context, "carts/u1", _tainted_response("u1"))
        registry.buffer(context, "products/5", _tainted_response("u1"))

        report = runner.gdpr.erase("u1")

        assert report.txn_buffers_scrubbed == 2
        assert context.poisoned == {"carts/u1", "products/5"}
        assert context.buffered == {}
        assert "txn-buffers" not in report.residuals
        registry.finish(context)

    def test_report_counts_the_scrubbed_buffer(self):
        runner = level_runner("delta", seed=SEED + 4)
        context = runner.txn_registry.begin("u2")
        runner.txn_registry.buffer(
            context, "carts/u2", _tainted_response("u2")
        )
        report = runner.gdpr.erase("u2")
        assert report.txn_buffers_scrubbed == 1
        assert report.entries_removed >= 1
        runner.txn_registry.finish(context)

    def test_erase_without_in_flight_txns_reports_zero(self):
        runner = level_runner("delta", seed=SEED + 4)
        report = runner.gdpr.erase("u3")
        assert report.txn_buffers_scrubbed == 0

    def test_other_users_buffers_survive(self):
        runner = level_runner("delta", seed=SEED + 4)
        registry = runner.txn_registry
        victim = registry.begin("u5")
        bystander = registry.begin("u6")
        registry.buffer(victim, "carts/u5", _tainted_response("u5"))
        registry.buffer(bystander, "carts/u6", _tainted_response("u6"))
        report = runner.gdpr.erase("u5")
        assert report.txn_buffers_scrubbed == 1
        assert bystander.poisoned == set()
        assert "carts/u6" in bystander.buffered
        registry.finish(victim)
        registry.finish(bystander)

    def test_the_run_counts_what_the_reports_say(self):
        """One count, one owner: the coordinator writes the scrubbed
        buffers beside its other erase counters, and the result
        restates that counter — the registry keeps no tally of its own."""
        runner = level_runner("delta", seed=SEED + 4)
        counter = runner.metrics.counter("gdpr.erase.txn_buffers_scrubbed")
        before = counter.value
        registry = runner.txn_registry
        context = registry.begin("u7")
        registry.buffer(context, "carts/u7", _tainted_response("u7"))
        registry.buffer(context, "products/9", _tainted_response("u7"))
        reports = [runner.gdpr.erase("u7"), runner.gdpr.erase("u8")]
        registry.finish(context)
        assert [r.txn_buffers_scrubbed for r in reports] == [2, 0]
        assert counter.value - before == 2
        restated = RunResult.over("speed-kit", runner.metrics)
        assert restated.txn_buffers_scrubbed == counter.value


class TestMidFlightRace:
    @pytest.fixture(scope="class")
    def raced(self):
        """One serializable txn whose every buffer is scrubbed while
        its validation verdict is in flight."""
        runner = level_runner("serializable", seed=SEED + 5)
        from repro.workload.trace import TxnRead

        event = next(
            e for e in runner.trace.events if isinstance(e, TxnRead)
        )
        user = runner.users.by_id(event.user_id)
        coordinator = runner._txn_coordinator_for(user)
        urls = [
            URL.parse(f"/api/products/{product_id}")
            for product_id in event.product_ids
        ]
        registry = runner.txn_registry
        captured = {}

        def txn():
            result = yield from coordinator.execute(
                urls, ConsistencyLevel.SERIALIZABLE
            )
            captured["result"] = result

        def eraser():
            while not any(
                context.buffered
                for context in registry._active.values()
            ):
                yield runner.env.timeout(0.001)
            captured["buffered"] = [
                response
                for context in registry._active.values()
                for response in context.buffered.values()
            ]
            registry.scrub_matching(_MatchEverything())

        runner.env.process(txn())
        runner.env.process(eraser())
        runner.env.run()
        return captured

    def test_race_flags_the_erase_conflict(self, raced):
        assert raced["result"].erase_conflict

    def test_scrubbed_buffers_are_never_returned(self, raced):
        """The resurrection bug: none of the buffered (scrubbed)
        response objects may appear in the transaction's result."""
        scrubbed = {id(response) for response in raced["buffered"]}
        returned = {
            id(read.response) for read in raced["result"].reads
        }
        assert scrubbed
        assert scrubbed.isdisjoint(returned)

    def test_poisoned_keys_were_refetched_from_origin(self, raced):
        result = raced["result"]
        ok = [
            read
            for read in result.reads
            if read.response.status == Status.OK
        ]
        assert ok
        assert all(read.refetched for read in ok)
        assert result.refetches >= len(ok)

    def test_race_still_meets_or_marks_the_level(self, raced):
        result = raced["result"]
        assert not result.silently_downgraded
        if result.achieved is ConsistencyLevel.SERIALIZABLE:
            assert result.validated_at is not None
