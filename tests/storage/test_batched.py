"""The batched engine's latency model: windows, flushes, overlap."""

import random

import pytest

from repro.simnet.delay import ConstantDelay
from repro.storage import BatchedRemoteBackend, ShardedBackend

READ = 0.01
WRITE = 0.02
MARGINAL = 0.001


def make_backend(**kwargs):
    kwargs.setdefault("read_delay", ConstantDelay(READ))
    kwargs.setdefault("write_delay", ConstantDelay(WRITE))
    kwargs.setdefault("per_key_cost", MARGINAL)
    kwargs.setdefault("rng", random.Random(0))
    return BatchedRemoteBackend(**kwargs)


class TestConstruction:
    def test_rejects_negative_per_key_cost(self):
        with pytest.raises(ValueError):
            make_backend(per_key_cost=-0.001)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_rejects_non_finite_per_key_cost(self, cost):
        with pytest.raises(ValueError, match="per_key_cost"):
            make_backend(per_key_cost=cost)

    def test_rejects_zero_batch_window(self):
        with pytest.raises(ValueError):
            make_backend(batch_window=0)

    def test_kind(self):
        assert make_backend().kind == "batched"


class TestWindowAccounting:
    def test_first_op_pays_full_round_trip(self):
        backend = make_backend()
        backend.get("a")
        assert backend.pending_latency() == pytest.approx(READ + MARGINAL)

    def test_coalesced_ops_pay_marginal_only(self):
        backend = make_backend()
        for key in ("a", "b", "c"):
            backend.get(key)
        assert backend.pending_latency() == pytest.approx(
            READ + 3 * MARGINAL
        )

    def test_get_many_is_one_round_trip(self):
        backend = make_backend()
        backend.get_many([f"k{i}" for i in range(10)])
        assert backend.pending_latency() == pytest.approx(
            READ + 10 * MARGINAL
        )

    def test_remove_many_is_one_round_trip(self):
        backend = make_backend()
        backend.remove_many([f"k{i}" for i in range(8)])
        assert backend.pending_latency() == pytest.approx(
            WRITE + 8 * MARGINAL
        )

    def test_direction_turn_flushes(self):
        backend = make_backend()
        backend.get("a")  # opens a read window
        backend.put("b", 1)  # turn: flush, open a write window
        backend.get("c")  # turn again
        assert backend.pending_latency() == pytest.approx(
            (READ + MARGINAL) + (WRITE + MARGINAL) + (READ + MARGINAL)
        )
        assert backend.batches_flushed == 2

    def test_window_full_flushes(self):
        backend = make_backend(batch_window=4)
        backend.get_many([f"k{i}" for i in range(10)])
        # 10 keys at window 4: three batches (4 + 4 + 2).
        assert backend.pending_latency() == pytest.approx(
            3 * READ + 10 * MARGINAL
        )
        assert backend.batches_flushed == 2  # third is still open
        backend.flush()
        assert backend.batches_flushed == 3
        assert backend.keys_batched == 10

    def test_drain_closes_window(self):
        backend = make_backend()
        backend.get("a")
        backend.drain_latency()
        backend.get("b")
        # The second get pays a fresh round trip: no coalescing across
        # drain points (the pipeline was already sent).
        assert backend.pending_latency() == pytest.approx(READ + MARGINAL)

    def test_flush_itself_charges_nothing(self):
        backend = make_backend()
        backend.get("a")
        before = backend.pending_latency()
        backend.flush()
        backend.flush()
        assert backend.pending_latency() == before

    def test_equal_medians_with_serialized_engine(self):
        """Single isolated ops cost one full round trip, exactly like
        the serialized engine (plus the marginal) — only coalesced
        round-trip *count* differs."""
        backend = make_backend()
        backend.get("a")
        single = backend.drain_latency()
        assert single == pytest.approx(READ + MARGINAL)


class TestOverlapDrain:
    def test_no_overlap_charges_in_full(self):
        backend = make_backend(overlap=False)
        backend.get("a")
        assert backend.drain_latency(concurrent=10.0) == pytest.approx(
            READ + MARGINAL
        )

    def test_overlap_clips_against_concurrent(self):
        backend = make_backend(overlap=True)
        backend.get_many([f"k{i}" for i in range(5)])
        pending = backend.pending_latency()
        concurrent = pending / 2
        charged = backend.drain_latency(concurrent=concurrent)
        assert charged == pytest.approx(pending - concurrent)

    def test_overlap_never_drains_more_than_accrued(self):
        backend = make_backend(overlap=True)
        backend.get("a")
        pending = backend.pending_latency()
        assert backend.drain_latency(concurrent=0.0) == pytest.approx(
            pending
        )

    def test_fully_hidden_under_long_transit(self):
        backend = make_backend(overlap=True)
        backend.get("a")
        pending = backend.pending_latency()
        assert backend.drain_latency(concurrent=pending * 3) == 0.0
        assert backend.overlap_hidden == pytest.approx(pending)

    def test_pool_never_drained_twice(self):
        backend = make_backend(overlap=True)
        backend.get("a")
        backend.drain_latency(concurrent=100.0)  # fully hidden ...
        assert backend.pending_latency() == 0.0
        assert backend.drain_latency() == 0.0  # ... and gone for good

    def test_negative_concurrent_is_treated_as_zero(self):
        backend = make_backend(overlap=True)
        backend.get("a")
        pending = backend.pending_latency()
        assert backend.drain_latency(concurrent=-5.0) == pytest.approx(
            pending
        )


class TestDelegation:
    def test_batched_ops_round_trip_through_inner(self):
        backend = make_backend(inner=ShardedBackend(n_shards=4))
        backend.put_many([(f"k{i}", i, 1) for i in range(12)])
        assert backend.get_many([f"k{i}" for i in range(12)]) == {
            f"k{i}": i for i in range(12)
        }
        removed = backend.remove_many([f"k{i}" for i in range(12)])
        assert len(removed) == 12
        assert len(backend) == 0

    def test_op_counts(self):
        backend = make_backend()
        backend.put("a", 1)
        backend.get("a")
        backend.get_many(["a"])
        backend.remove_many(["a"])
        assert backend.op_counts == {
            "put": 1,
            "get": 1,
            "get_many": 1,
            "remove_many": 1,
        }
