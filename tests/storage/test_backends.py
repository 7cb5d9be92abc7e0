"""Engine-specific behaviour: sharding, remote latency, the spec."""

import random

import pytest

from repro.simnet.delay import ConstantDelay
from repro.storage import (
    BACKEND_KINDS,
    BackendSpec,
    BatchedRemoteBackend,
    InMemoryBackend,
    ShardedBackend,
    SimulatedRemoteBackend,
)
from repro.storage.sharded import shard_index_of


class TestShardRouting:
    def test_routing_is_stable(self):
        # CRC-32 routing must not depend on PYTHONHASHSEED.
        assert shard_index_of("pages/home", 8) == shard_index_of(
            "pages/home", 8
        )
        backend = ShardedBackend(n_shards=8)
        assert backend.shard_index("pages/home") == shard_index_of(
            "pages/home", 8
        )

    def test_key_lives_in_its_routed_shard(self):
        backend = ShardedBackend(n_shards=4)
        backend.put("k", "value", size=1)
        index = backend.shard_index("k")
        assert backend.shards[index].get("k") == "value"
        for other, shard in enumerate(backend.shards):
            if other != index:
                assert shard.get("k") is None

    def test_keys_spread_across_shards(self):
        backend = ShardedBackend(n_shards=4)
        for i in range(200):
            backend.put(f"key-{i}", i)
        sizes = [len(shard) for shard in backend.shards]
        assert sum(sizes) == 200
        assert all(size > 0 for size in sizes)  # nothing degenerate

    def test_single_shard_behaves_like_inmemory(self):
        sharded = ShardedBackend(n_shards=1)
        plain = InMemoryBackend()
        for i in range(20):
            sharded.put(f"k{i}", i, size=i)
            plain.put(f"k{i}", i, size=i)
        assert sorted(sharded.scan()) == sorted(plain.scan())
        assert sharded.bytes_used == plain.bytes_used

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ShardedBackend(n_shards=0)


class TestRemoteLatency:
    def _backend(self, read=0.001, write=0.002):
        return SimulatedRemoteBackend(
            read_delay=ConstantDelay(read),
            write_delay=ConstantDelay(write),
        )

    def test_operations_accrue_latency(self):
        backend = self._backend()
        backend.put("k", "v")  # write: 0.002
        backend.get("k")  # read: 0.001
        backend.remove("k")  # write: 0.002
        assert backend.pending_latency() == pytest.approx(0.005)
        assert backend.total_latency == pytest.approx(0.005)
        assert backend.op_counts == {"get": 1, "put": 1, "remove": 1}

    def test_scan_and_clear_are_charged(self):
        backend = self._backend()
        list(backend.scan())
        backend.clear()
        assert backend.pending_latency() == pytest.approx(0.003)

    def test_drain_returns_and_resets(self):
        backend = self._backend()
        backend.put("k", "v")
        assert backend.drain_latency() == pytest.approx(0.002)
        assert backend.drain_latency() == 0.0
        assert backend.total_latency == pytest.approx(0.002)

    def test_metadata_is_free(self):
        backend = self._backend()
        backend.put("k", "v", size=9)
        backend.drain_latency()
        backend.peek("k")
        assert "k" in backend
        assert len(backend) == 1
        assert backend.bytes_used == 9
        assert backend.keys() == ["k"]
        assert backend.pending_latency() == 0.0

    def test_latency_stream_is_deterministic(self):
        first = SimulatedRemoteBackend(rng=random.Random(42))
        second = SimulatedRemoteBackend(rng=random.Random(42))
        for backend in (first, second):
            for i in range(50):
                backend.put(f"k{i}", i)
                backend.get(f"k{i}")
        assert first.total_latency == pytest.approx(second.total_latency)

    def test_every_key_of_a_multi_key_call_pays_its_own_round_trip(self):
        """The serialized engine never amortizes: N keys, N draws from
        the one latency stream, in call order, with nothing hidden
        under concurrent transit at the drain."""
        backend = SimulatedRemoteBackend(rng=random.Random(9))
        backend.put_many([(f"k{i}", i, 1) for i in range(5)])
        backend.get_many([f"k{i}" for i in range(5)])
        backend.remove_many(["k0", "k1"])
        twin = random.Random(9)
        expected = 0.0
        for delay in (
            [backend.write_delay] * 5
            + [backend.read_delay] * 5
            + [backend.write_delay] * 2
        ):
            expected += delay.sample(twin)
        assert backend.pending_latency() == expected
        assert backend.drain_latency(concurrent=1.0) == expected
        assert len(backend) == 3

    def test_storage_delegates_to_inner(self):
        inner = InMemoryBackend()
        backend = SimulatedRemoteBackend(inner=inner)
        backend.put("k", "v", size=4)
        assert inner.get("k") == "v"
        assert inner.bytes_used == 4


class TestBackendSpec:
    def test_kind_registry(self):
        assert BACKEND_KINDS == (
            "inmemory",
            "sharded",
            "remote",
            "batched",
            "write-behind",
        )

    def test_build_each_kind(self):
        assert isinstance(
            BackendSpec(kind="inmemory").build(), InMemoryBackend
        )
        sharded = BackendSpec(kind="sharded", n_shards=3).build()
        assert isinstance(sharded, ShardedBackend)
        assert sharded.n_shards == 3
        assert isinstance(
            BackendSpec(kind="remote").build(), SimulatedRemoteBackend
        )
        batched = BackendSpec(
            kind="batched", batch_window=8, overlap=True
        ).build()
        assert isinstance(batched, BatchedRemoteBackend)
        assert batched.batch_window == 8
        assert batched.overlap

    def test_build_returns_fresh_instances(self):
        spec = BackendSpec(kind="inmemory")
        assert spec.build() is not spec.build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^kind must be one of"):
            BackendSpec(kind="memcached")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BackendSpec(n_shards=0)
        with pytest.raises(ValueError):
            BackendSpec(read_latency=0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_latency_sigma_is_checked_at_the_boundary(self, sigma):
        # Unchecked, nan/inf build and run, and -1 dies deep inside
        # build() with LogNormalDelay's message instead of this one.
        with pytest.raises(ValueError, match="latency_sigma must be"):
            BackendSpec(kind="remote", latency_sigma=sigma)
        spec = BackendSpec(kind="remote", latency_sigma=0.0)
        assert spec.build().read_delay.sigma == 0.0

    #: A non-default value per tuning field, and the kinds reading it.
    TUNING = {
        "n_shards": (3, {"sharded"}),
        "read_latency": (0.05, {"remote", "batched", "write-behind"}),
        "write_latency": (0.05, {"remote", "batched", "write-behind"}),
        "latency_sigma": (0.1, {"remote", "batched", "write-behind"}),
        "per_key_cost": (0.001, {"batched", "write-behind"}),
        "batch_window": (4, {"batched", "write-behind"}),
        "overlap": (True, {"batched", "write-behind"}),
        "flush_interval": (5.0, {"write-behind"}),
    }

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    @pytest.mark.parametrize("knob", sorted(TUNING))
    def test_a_knob_the_engine_does_not_read_is_refused(self, kind, knob):
        value, read_by = self.TUNING[knob]
        if kind in read_by:
            assert BackendSpec(kind=kind, **{knob: value}).build().kind == kind
            return
        with pytest.raises(ValueError) as err:
            BackendSpec(kind=kind, **{knob: value})
        assert knob in str(err.value) and repr(kind) in str(err.value)
        assert all(reader in str(err.value) for reader in read_by)
        # The default is what an engine that ignores the knob sees.
        default = getattr(BackendSpec(), knob)
        assert BackendSpec(kind=kind, **{knob: default}) == BackendSpec(kind=kind)

    def test_every_field_is_a_knob_the_kind_or_the_seed(self):
        assert set(BackendSpec.__dataclass_fields__) == {
            "kind", "seed", *self.TUNING
        }

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_every_kind_takes_the_runs_seed(self, kind):
        assert BackendSpec(kind=kind, seed=7).build().kind == kind

    def test_salt_decorrelates_remote_streams(self):
        spec = BackendSpec(kind="remote", seed=1)
        a = spec.build(salt="edge:edge-1")
        b = spec.build(salt="edge:edge-2")
        same = spec.build(salt="edge:edge-1")
        for backend in (a, b, same):
            for i in range(20):
                backend.put(f"k{i}", i)
        assert a.total_latency == pytest.approx(same.total_latency)
        assert a.total_latency != pytest.approx(b.total_latency)

    def test_remote_spec_latency_params_apply(self):
        spec = BackendSpec(
            kind="remote",
            read_latency=0.05,
            write_latency=0.1,
            latency_sigma=0.2,
        )
        backend = spec.build()
        assert backend.read_delay.median == pytest.approx(0.05)
        assert backend.write_delay.median == pytest.approx(0.1)
