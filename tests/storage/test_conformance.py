"""The backend conformance suite: one contract, every engine.

Each test runs against every registered engine configuration via the
``backend`` fixture. Engines added later only need a new entry in
``ENGINE_FACTORIES`` to be held to the same contract.
"""

import random

import pytest

from repro.faults import FlakyBackend
from repro.storage import (
    BatchedRemoteBackend,
    CacheBackend,
    DelegatingBackend,
    InMemoryBackend,
    ShardedBackend,
    SimulatedRemoteBackend,
    WriteBehindBackend,
)

ENGINE_FACTORIES = {
    "inmemory": InMemoryBackend,
    "sharded-1": lambda: ShardedBackend(n_shards=1),
    "sharded-4": lambda: ShardedBackend(n_shards=4),
    "remote": lambda: SimulatedRemoteBackend(rng=random.Random(7)),
    "remote-over-sharded": lambda: SimulatedRemoteBackend(
        inner=ShardedBackend(n_shards=4), rng=random.Random(7)
    ),
    "batched": lambda: BatchedRemoteBackend(rng=random.Random(7)),
    "batched-overlap": lambda: BatchedRemoteBackend(
        overlap=True, rng=random.Random(7)
    ),
    "batched-over-sharded": lambda: BatchedRemoteBackend(
        inner=ShardedBackend(n_shards=4), rng=random.Random(7)
    ),
    "write-behind": lambda: WriteBehindBackend(rng=random.Random(7)),
    "write-behind-overlap": lambda: WriteBehindBackend(
        overlap=True, rng=random.Random(7)
    ),
    "write-behind-over-sharded": lambda: WriteBehindBackend(
        inner=BatchedRemoteBackend(
            inner=ShardedBackend(n_shards=4), rng=random.Random(7)
        )
    ),
    "flaky-0": lambda: FlakyBackend(InMemoryBackend(), 0.0),
    # What every cache tier of the perf ledger's ``storm`` workload
    # runs on (there with a nonzero error rate).
    "flaky-over-write-behind": lambda: FlakyBackend(
        WriteBehindBackend(rng=random.Random(7)), 0.0
    ),
    "batched-over-write-behind": lambda: BatchedRemoteBackend(
        inner=WriteBehindBackend(rng=random.Random(7)),
        rng=random.Random(8),
    ),
    "sharded-over-write-behind": lambda: ShardedBackend(
        n_shards=4,
        shard_factory=lambda: WriteBehindBackend(rng=random.Random(7)),
    ),
}

#: Configurations with a write-behind engine somewhere inside: bytes can
#: sit acknowledged in a queue that the read view no longer shows.
WRITE_BEHIND_CONFIGS = sorted(
    name for name in ENGINE_FACTORIES if "write-behind" in name
)


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def backend(request):
    return ENGINE_FACTORIES[request.param]()


class TestRoundtrip:
    def test_put_get(self, backend):
        backend.put("k", "value", size=5)
        assert backend.get("k") == "value"

    def test_get_missing(self, backend):
        assert backend.get("ghost") is None

    def test_peek_matches_get(self, backend):
        backend.put("k", "value", size=5)
        assert backend.peek("k") == "value"
        assert backend.peek("ghost") is None

    def test_contains(self, backend):
        backend.put("k", "value")
        assert "k" in backend
        assert "ghost" not in backend

    def test_overwrite_replaces_value_and_size(self, backend):
        backend.put("k", "old", size=10)
        backend.put("k", "new", size=3)
        assert backend.get("k") == "new"
        assert len(backend) == 1
        assert backend.bytes_used == 3

    def test_values_are_opaque(self, backend):
        marker = object()
        backend.put("k", marker)
        assert backend.get("k") is marker


class TestRemove:
    def test_remove_returns_value(self, backend):
        backend.put("k", "value", size=5)
        assert backend.remove("k") == "value"
        assert backend.get("k") is None
        assert len(backend) == 0
        assert backend.bytes_used == 0

    def test_remove_missing_returns_none(self, backend):
        assert backend.remove("ghost") is None

    def test_remove_drops_only_the_named_key(self, backend):
        backend.put("k", "value", size=5)
        backend.put("other", "kept", size=7)
        backend.remove("k")
        assert backend.keys() == ["other"]
        assert len(backend) == 1
        assert backend.bytes_used == 7


class TestScan:
    def test_scan_all(self, backend):
        for i in range(10):
            backend.put(f"key-{i}", i)
        assert sorted(backend.scan()) == [(f"key-{i}", i) for i in range(10)]

    def test_scan_prefix(self, backend):
        for i in range(10):
            backend.put(f"a/{i}", i)
            backend.put(f"b/{i}", i)
        found = dict(backend.scan("a/"))
        assert found == {f"a/{i}": i for i in range(10)}

    def test_scan_empty_backend(self, backend):
        assert list(backend.scan()) == []

    def test_keys(self, backend):
        backend.put("x", 1)
        backend.put("y", 2)
        assert sorted(backend.keys()) == ["x", "y"]


class TestAccounting:
    def test_len_and_bytes(self, backend):
        for i in range(5):
            backend.put(f"k{i}", i, size=10)
        assert len(backend) == 5
        assert backend.bytes_used == 50

    def test_clear(self, backend):
        for i in range(5):
            backend.put(f"k{i}", i, size=10)
        backend.clear()
        assert len(backend) == 0
        assert backend.bytes_used == 0
        assert list(backend.scan()) == []
        assert backend.keys() == []

    def test_default_size_is_zero(self, backend):
        backend.put("k", "value")
        assert backend.bytes_used == 0


class TestBatchedOps:
    """The multi-key protocol: default loops and batched overrides
    must be observably identical apart from latency accounting."""

    def test_get_many_returns_present_keys_only(self, backend):
        backend.put("a", 1)
        backend.put("b", 2)
        found = backend.get_many(["a", "ghost", "b"])
        assert found == {"a": 1, "b": 2}

    def test_get_many_empty(self, backend):
        assert backend.get_many([]) == {}

    def test_put_many_stores_all_with_sizes(self, backend):
        backend.put_many([("a", 1, 10), ("b", 2, 20), ("c", 3, 30)])
        assert backend.get("a") == 1
        assert backend.get("c") == 3
        assert len(backend) == 3
        assert backend.bytes_used == 60

    def test_put_many_overwrites(self, backend):
        backend.put("a", "old", size=10)
        backend.put_many([("a", "new", 3)])
        assert backend.get("a") == "new"
        assert backend.bytes_used == 3

    def test_remove_many_returns_removed_values(self, backend):
        backend.put("a", 1, size=5)
        backend.put("b", 2, size=5)
        removed = backend.remove_many(["a", "ghost", "b"])
        assert removed == {"a": 1, "b": 2}
        assert len(backend) == 0
        assert backend.bytes_used == 0

    def test_remove_many_drops_only_the_named_keys(self, backend):
        backend.put_many([("a", 1, 5), ("b", 2, 5), ("c", 3, 7)])
        backend.remove_many(["a", "b"])
        assert backend.keys() == ["c"]
        assert len(backend) == 1
        assert backend.bytes_used == 7


class TestUnflushedVisibility:
    """Acknowledged mutations are immediately visible to the writer.

    On synchronous engines this is trivial; on the write-behind engine
    these reads exercise the read-your-writes overlay — the mutations
    are still queued, not yet applied to the wrapped store.
    """

    def test_get_many_sees_unflushed_put_many(self, backend):
        backend.put_many([("a", "old-a", 5), ("b", "old-b", 5)])
        backend.put_many([("a", "new-a", 3), ("c", "new-c", 3)])
        found = backend.get_many(["a", "b", "c"])
        assert found == {"a": "new-a", "b": "old-b", "c": "new-c"}

    def test_get_many_sees_unflushed_removes(self, backend):
        backend.put_many([("a", 1, 0), ("b", 2, 0)])
        backend.remove("a")
        assert backend.get_many(["a", "b"]) == {"b": 2}

    def test_scan_sees_unflushed_mutations(self, backend):
        backend.put("x/1", "one")
        backend.put("x/2", "two")
        backend.remove("x/1")
        backend.put("x/3", "three")
        assert dict(backend.scan("x/")) == {"x/2": "two", "x/3": "three"}


class TestLatencyContract:
    def test_drain_resets_pending(self, backend):
        backend.put("k", "value")
        backend.get("k")
        pending = backend.pending_latency()
        assert pending >= 0.0
        assert backend.drain_latency() == pending
        assert backend.pending_latency() == 0.0
        assert backend.drain_latency() == 0.0

    def test_drain_with_concurrent_never_negative(self, backend):
        """Regression: a concurrent-transit clip larger than the
        pending pool must floor residual latency at zero, never go
        negative (which would *speed up* the caller)."""
        for i in range(5):
            backend.put(f"k{i}", i, size=1)
            backend.get(f"k{i}")
        assert backend.drain_latency(concurrent=1e9) >= 0.0
        assert backend.drain_latency(concurrent=0.0) >= 0.0

    def test_peek_and_metadata_are_cost_free(self, backend):
        backend.put("k", "value", size=5)
        backend.drain_latency()
        backend.peek("k")
        len(backend)
        _ = backend.bytes_used
        assert backend.pending_latency() == 0.0


class TestOnlyThePolicyLayerEvicts:
    """Capacity is the policy layer's decision alone: an engine keeps
    everything it was given until it is told otherwise — while the
    writes are still buffered, after the drain that lets a background
    flusher run, and after the durability barrier."""

    N = 300

    def _assert_holds_everything(self, backend, expected):
        assert len(backend) == len(expected)
        assert backend.bytes_used == 10 * len(expected)
        assert sorted(backend.keys()) == sorted(expected)
        assert {key: backend.get(key) for key in expected} == expected
        assert backend.get_many(list(expected)) == expected

    @pytest.mark.parametrize("batched", [False, True], ids=["put", "put_many"])
    def test_an_engine_stores_what_it_is_given(self, backend, batched):
        expected = {f"key-{i}": i + 1 for i in range(self.N)}
        if batched:
            backend.put_many(
                [(key, value, 10) for key, value in expected.items()]
            )
        else:
            for key, value in expected.items():
                backend.put(key, value, size=10)
        self._assert_holds_everything(backend, expected)
        backend.drain_latency()
        self._assert_holds_everything(backend, expected)
        backend.sync()
        self._assert_holds_everything(backend, expected)


class TestDeepViews:
    """What the GDPR walk relies on: the outermost engine of any
    composition sees the write-behind queue buried inside it."""

    @pytest.mark.parametrize("name", WRITE_BEHIND_CONFIGS)
    def test_queued_put_is_visible_through_every_wrapper(self, name):
        backend = ENGINE_FACTORIES[name]()

        def of_u1(key, value):
            return key.startswith("u1:")

        backend.put("u1:cart", "cart of u1", size=10)
        assert backend.queued_matching(of_u1) == ["u1:cart"]
        # The erase queues a remove behind the put: the read view is
        # clean, the acknowledged payload still sits in the queue.
        assert list(backend.erase_matching(of_u1)) == ["u1:cart"]
        assert backend.get("u1:cart") is None
        assert backend.residuals_matching(of_u1) == ["queued:u1:cart"]
        assert backend.queued_matching(of_u1) == ["u1:cart"]
        assert backend.scrub_pending(of_u1) == 1
        assert backend.residuals_matching(of_u1) == []
        # The barrier waits at least one flusher tick for the queue.
        assert backend.sync() > 0.0
        assert backend.sync() == 0.0


def _public(cls):
    return {
        name
        for name, member in vars(cls).items()
        if (callable(member) or isinstance(member, property))
        and (not name.startswith("_") or name in ("__len__", "__contains__"))
    }


class TestClosedProtocol:
    """Adding a protocol method without teaching the wrappers fails
    here by name."""

    def test_delegating_backend_forwards_the_whole_surface(self):
        missing = _public(CacheBackend) - _public(DelegatingBackend)
        assert missing == set()

    def test_the_protocol_carries_no_state(self):
        # Calls run one way, policy -> engine: the base type keeps no
        # listeners (nothing at all), and a wrapper only what it wraps.
        assert "__init__" not in vars(CacheBackend)
        assert len(_public(CacheBackend)) == 20
        assert list(vars(DelegatingBackend(InMemoryBackend()))) == ["inner"]

    def test_sharded_backend_gathers_every_deep_view(self):
        deep_views = {
            "scrub_pending",
            "residuals_matching",
            "queued_matching",
            "sync",
            "pending_latency",
            "drain_latency",
        }
        assert deep_views <= _public(CacheBackend)
        assert deep_views <= _public(ShardedBackend)
