"""Coordinator behavior across the ladder, on full-stack replays."""

import pytest

from repro.txn import ConsistencyLevel
from repro.txn.coordinator import VALIDATION_RETRIES

from tests.txn.conftest import level_runner

pytestmark = pytest.mark.txn


class TestAccounting:
    def test_workload_actually_runs_transactions(self, runner):
        assert runner.result.txns > 50
        assert runner.txn_checker.txn_count == runner.result.txns

    def test_per_level_latency_histogram_is_populated(self, runner, level):
        latency = runner.metrics.histogram(f"txn.plt.{level}")
        assert latency.count == runner.result.txns

    def test_level_counter_matches_requests(self, runner, level):
        assert (
            runner.metrics.counter(f"txn.level.{level}").value
            == runner.result.txns
        )

    def test_requested_level_is_recorded(self, runner, level):
        want = ConsistencyLevel.parse(level)
        assert all(
            record.requested is want
            for record in runner.txn_checker.records
        )

    def test_delta_level_never_refetches_or_validates(self):
        runner = level_runner("delta")
        assert runner.result.txn_refetches == 0
        assert runner.result.txn_aborts == 0
        assert runner.server.txn_validations == 0

    def test_snapshot_repairs_cut_violations_by_refetching(self):
        """The churny workload fractures some cuts; the coordinator
        repairs them from the origin rather than degrading."""
        runner = level_runner("snapshot")
        assert runner.result.txn_refetches > 0
        assert runner.server.txn_validations == 0

    def test_serializable_validates_every_transaction(self):
        runner = level_runner("serializable")
        assert runner.server.txn_validations >= runner.result.txns

    def test_abort_accounting_is_consistent(self):
        runner = level_runner("serializable")
        aborts = runner.metrics.histogram("txn.aborts.per_txn")
        assert aborts.count == runner.result.txns
        assert (
            runner.metrics.counter("txn.aborts").value
            == runner.result.txn_aborts
        )

    def test_retries_never_exceed_the_budget(self, runner):
        assert (
            runner.result.txn_validation_retries
            <= runner.result.txns * VALIDATION_RETRIES
        )


class TestLadderInvariants:
    def test_no_fractured_reads_at_or_above_snapshot(self, runner):
        runner.txn_checker.assert_txn_consistent()

    def test_degradations_are_always_marked(self, runner):
        assert runner.result.txn_silent_downgrades == 0
        for record in runner.txn_checker.records:
            if record.achieved < record.requested:
                assert record.degraded

    def test_txn_reads_respect_the_delta_bound_too(self, runner):
        """Snapshot/serializable reads are also valid Δ reads: the
        per-key checker ingests them and stays clean."""
        runner.checker.assert_delta_atomic()


class TestMonotonicFloor:
    def test_no_client_ever_sees_a_version_regress(self, runner):
        """Once a transaction has *returned* version v of a key to a
        client, no later read of that client may observe v' < v."""
        reads = []
        for record in runner.txn_checker.records:
            for version_key, version, read_at in record.reads:
                reads.append(
                    (
                        record.client,
                        version_key,
                        read_at,
                        version,
                        record.finished_at,
                    )
                )
        regressions = []
        highest = {}
        for client, key, read_at, version, finished_at in sorted(
            reads, key=lambda read: read[2]
        ):
            prev = highest.get((client, key))
            if prev is not None:
                prev_version, prev_finished = prev
                if version < prev_version and prev_finished <= read_at:
                    regressions.append(
                        (client, key, prev_version, version)
                    )
            if prev is None or version > prev[0]:
                highest[(client, key)] = (version, finished_at)
        assert regressions == [], (
            f"{len(regressions)} monotonic-read regressions; "
            f"first: {regressions[0]}"
        )


class TestResultShape:
    def test_merged_result_serializes_txn_fields(self, runner):
        record = runner.result.to_dict()
        for field in (
            "txns",
            "txn_aborts",
            "txn_validation_retries",
            "txn_refetches",
            "txn_degraded",
            "txn_erase_conflicts",
            "txn_fractured_reads",
            "txn_serialization_violations",
            "txn_silent_downgrades",
            "txn_buffers_scrubbed",
        ):
            assert field in record

    def test_reads_recorded_as_ok_only(self, runner):
        """The checker only ever sees certified OK reads."""
        assert all(
            version is not None and version >= 1
            for record in runner.txn_checker.records
            for _key, version, _at in record.reads
        )

    def test_level_counters_sum_to_txns(self, runner, level):
        total = sum(
            runner.metrics.counter(f"txn.level.{name}").value
            for name in ("delta", "snapshot", "serializable")
        )
        assert total == runner.result.txns
