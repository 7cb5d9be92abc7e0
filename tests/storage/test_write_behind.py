"""The write-behind engine: acks, epochs, overlay, sync barriers."""

import random

import pytest

from repro.simnet.delay import ConstantDelay
from repro.storage import (
    BatchedRemoteBackend,
    ShardedBackend,
    WriteBehindBackend,
)

READ = 0.01
WRITE = 0.02
MARGINAL = 0.001
FLUSH = 0.05


def make_backend(**kwargs):
    kwargs.setdefault("read_delay", ConstantDelay(READ))
    kwargs.setdefault("write_delay", ConstantDelay(WRITE))
    kwargs.setdefault("per_key_cost", MARGINAL)
    kwargs.setdefault("flush_interval", FLUSH)
    kwargs.setdefault("rng", random.Random(0))
    return WriteBehindBackend(**kwargs)


class TestConstruction:
    def test_kind(self):
        assert make_backend().kind == "write-behind"

    def test_rejects_negative_flush_interval(self):
        with pytest.raises(ValueError):
            make_backend(flush_interval=-0.01)

    def test_rejects_non_empty_inner(self):
        inner = BatchedRemoteBackend(rng=random.Random(0))
        inner.put("pre", "existing")
        inner.drain_latency()
        with pytest.raises(ValueError):
            WriteBehindBackend(inner=inner)

    def test_builds_batched_inner_by_default(self):
        assert isinstance(make_backend().inner, BatchedRemoteBackend)


class TestImmediateAcks:
    """Mutations acknowledge at zero foreground cost."""

    def test_put_accrues_no_latency(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        assert backend.pending_latency() == 0.0
        assert backend.drain_latency() == 0.0

    def test_remove_accrues_no_latency(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        backend.drain_latency()
        assert backend.remove("k") == "v"
        assert backend.pending_latency() == 0.0
        assert backend.drain_latency() == 0.0

    def test_put_many_accrues_no_latency(self):
        backend = make_backend()
        backend.put_many([(f"k{i}", i, 1) for i in range(50)])
        assert backend.pending_latency() == 0.0

    def test_reads_still_pay_inner_cost(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        backend.drain_latency()  # flush: the key now lives inner-side
        backend.get("k")
        assert backend.pending_latency() == pytest.approx(READ + MARGINAL)

    def test_acks_are_counted(self):
        backend = make_backend()
        backend.put("a", 1)
        backend.put_many([("b", 2, 0), ("c", 3, 0)])
        backend.remove("a")
        assert backend.acks == 4


class TestFlushEpochs:
    def test_mutations_queue_until_drain(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.put("b", 2, size=1)
        assert backend.queued_mutations == 2
        assert len(backend.inner) == 0  # nothing applied yet

    def test_drain_flushes_to_inner_as_background_cost(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.put("b", 2, size=1)
        assert backend.drain_latency() == 0.0  # foreground: nothing
        assert backend.queued_mutations == 0
        assert backend.inner.get("a") == 1
        # One write round trip + two marginals, off the critical path.
        assert backend.background_latency == pytest.approx(
            WRITE + 2 * MARGINAL
        )

    def test_epoch_and_mutation_counters(self):
        backend = make_backend()
        backend.put("a", 1)
        backend.drain_latency()
        backend.put("b", 2)
        backend.put("c", 3)
        backend.drain_latency()
        assert backend.epochs_flushed == 2
        assert backend.mutations_flushed == 3

    def test_empty_drain_flushes_nothing(self):
        backend = make_backend()
        backend.drain_latency()
        assert backend.epochs_flushed == 0
        assert backend.background_latency == 0.0

    def test_remove_after_put_is_not_reordered(self):
        """A remove queued after a put in the same epoch must win: the
        flush cuts batches at type turns so arrival order is kept."""
        backend = make_backend()
        backend.put("k", "v1", size=2)
        backend.remove("k")
        backend.put("k", "v2", size=2)
        backend.remove("k")
        backend.drain_latency()
        assert backend.inner.get("k") is None
        assert backend.get("k") is None
        assert len(backend) == 0
        assert backend.bytes_used == 0

    def test_put_after_remove_is_not_reordered(self):
        backend = make_backend()
        backend.put("k", "v1", size=2)
        backend.drain_latency()
        backend.remove("k")
        backend.put("k", "v2", size=3)
        backend.drain_latency()
        assert backend.inner.get("k") == "v2"
        assert backend.bytes_used == 3


class TestReadYourWrites:
    def test_get_answers_from_overlay_cost_free(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        assert backend.get("k") == "v"
        assert backend.pending_latency() == 0.0

    def test_tombstone_hides_flushed_value(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        backend.drain_latency()
        backend.remove("k")
        # The inner engine still holds the copy; the overlay's
        # tombstone must hide it from every read path.
        assert backend.inner.peek("k") == "v"
        assert backend.get("k") is None
        assert backend.peek("k") is None
        assert "k" not in backend
        assert backend.get_many(["k"]) == {}

    def test_overlay_drops_once_flushed(self):
        backend = make_backend()
        backend.put("k", "v", size=4)
        backend.drain_latency()
        assert backend._overlay == {}
        assert backend.get("k") == "v"  # now served by the inner engine

    def test_latest_queued_value_wins(self):
        backend = make_backend()
        backend.put("k", "v1", size=1)
        backend.put("k", "v2", size=2)
        assert backend.get("k") == "v2"
        assert backend.bytes_used == 2

    def test_accounting_is_merged_view(self):
        backend = make_backend()
        backend.put("a", 1, size=10)
        backend.drain_latency()
        backend.put("b", 2, size=20)  # queued
        backend.remove("a")  # queued tombstone
        assert len(backend) == 1
        assert backend.bytes_used == 20
        assert sorted(backend.keys()) == ["b"]


class TestSyncBarrier:
    def test_sync_flushes_everything(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.put("b", 2, size=1)
        backend.sync()
        assert backend.queued_mutations == 0
        assert backend.inner.get("a") == 1
        assert backend.inner.get("b") == 2

    def test_sync_wait_covers_interval_and_write_drain(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.put("b", 2, size=1)
        wait = backend.sync()
        assert wait == pytest.approx(FLUSH + WRITE + 2 * MARGINAL)

    def test_sync_with_nothing_queued_is_free(self):
        backend = make_backend()
        backend.put("a", 1)
        backend.drain_latency()
        assert backend.sync() == 0.0

    def test_sync_includes_outstanding_read_cost(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.drain_latency()
        backend.get("a")  # read cost pending against the inner engine
        backend.put("b", 2, size=1)
        wait = backend.sync()
        assert wait == pytest.approx(
            (READ + MARGINAL) + FLUSH + (WRITE + MARGINAL)
        )
        assert backend.pending_latency() == 0.0

    def test_sync_cost_is_not_double_counted_in_background(self):
        backend = make_backend()
        backend.put("a", 1, size=1)
        backend.sync()
        assert backend.background_latency == 0.0


class TestRandomizedModelCheck:
    """The merged view must match a plain dict under any schedule of
    puts, removes, batched ops, drains, and sync barriers."""

    KEYS = [f"k{i}" for i in range(12)]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_matches_reference(self, seed):
        rng = random.Random(seed)
        backend = make_backend(rng=random.Random(seed + 100))
        reference = {}
        for _ in range(400):
            op = rng.random()
            key = rng.choice(self.KEYS)
            if op < 0.35:
                value = rng.randrange(1000)
                backend.put(key, value, size=1)
                reference[key] = value
            elif op < 0.50:
                expected = reference.pop(key, None)
                assert backend.remove(key) == expected
            elif op < 0.60:
                items = [
                    (k, rng.randrange(1000), 1)
                    for k in rng.sample(self.KEYS, 4)
                ]
                backend.put_many(items)
                reference.update({k: v for k, v, _ in items})
            elif op < 0.70:
                victims = rng.sample(self.KEYS, 3)
                expected = {
                    k: reference.pop(k) for k in victims if k in reference
                }
                assert backend.remove_many(victims) == expected
            elif op < 0.90:
                assert backend.get(key) == reference.get(key)
            elif op < 0.96:
                assert backend.drain_latency() >= 0.0
            else:
                assert backend.sync() >= 0.0
        backend.sync()
        assert dict(backend.inner.scan()) == reference
        assert dict(backend.scan()) == reference
        assert len(backend) == len(reference)
        assert backend.bytes_used == len(reference)
        assert backend.queued_mutations == 0
