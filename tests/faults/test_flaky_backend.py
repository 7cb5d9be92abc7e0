"""Tests for the flaky-storage wrapper and its backend spec."""

import random

import pytest

from repro.faults import FaultyBackendSpec, FlakyBackend
from repro.storage import BACKEND_KINDS, BackendSpec
from repro.storage.backend import InMemoryBackend


def loaded(error_rate, rng=None):
    backend = FlakyBackend(
        InMemoryBackend(), error_rate=error_rate, rng=rng or random.Random(0)
    )
    for i in range(20):
        backend.put(f"k{i}", f"v{i}", size=10)
    return backend


class TestFlakyBackend:
    def test_zero_rate_is_transparent(self):
        backend = loaded(0.0)
        assert all(backend.get(f"k{i}") == f"v{i}" for i in range(20))
        assert backend.failures == 0

    def test_reads_fail_at_the_configured_rate(self):
        backend = loaded(0.5)
        results = [backend.get("k1") for _ in range(400)]
        misses = results.count(None)
        assert 140 < misses < 260
        assert backend.failures == misses

    def test_get_many_drops_failed_keys(self):
        backend = loaded(1.0)
        assert backend.get_many([f"k{i}" for i in range(20)]) == {}
        assert backend.failures == 20

    def test_writes_and_deletes_never_fail(self):
        backend = loaded(1.0)
        backend.put("fresh", "value", size=5)
        assert backend.remove("fresh") == "value"
        assert backend.remove_many(["k0"]) == {"k0": "v0"}

    def test_peek_and_scan_never_fail(self):
        backend = loaded(1.0)
        assert backend.peek("k1") == "v1"
        assert "k1" in backend
        assert len(dict(backend.scan())) == 20
        assert len(backend) == 20
        assert backend.bytes_used == 200

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FlakyBackend(InMemoryBackend(), error_rate=1.5)


class TestFaultyBackendSpec:
    def test_wrapping_preserves_engine_parameters(self):
        base = BackendSpec(kind="sharded", n_shards=4)
        spec = FaultyBackendSpec.wrapping(base, error_rate=0.1, fault_seed=3)
        assert spec.kind == "sharded"
        assert spec.n_shards == 4
        assert spec.error_rate == 0.1

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_wrapping_works_on_every_kind(self, kind):
        spec = FaultyBackendSpec.wrapping(
            BackendSpec(kind=kind, seed=3), error_rate=0.1, fault_seed=2
        )
        assert spec.build(salt="edge-1").inner.kind == kind

    def test_build_wraps_with_flaky(self):
        spec = FaultyBackendSpec.wrapping(BackendSpec(), error_rate=0.2)
        engine = spec.build(salt="edge-1")
        assert isinstance(engine, FlakyBackend)
        assert engine.inner.kind == "inmemory"

    def test_zero_rate_builds_bare_engine(self):
        spec = FaultyBackendSpec.wrapping(BackendSpec(), error_rate=0.0)
        assert not isinstance(spec.build(salt="x"), FlakyBackend)

    def test_sibling_tiers_fail_independently_but_deterministically(self):
        spec = FaultyBackendSpec.wrapping(
            BackendSpec(), error_rate=0.5, fault_seed=1
        )

        def failure_pattern(salt):
            engine = spec.build(salt=salt)
            engine.put("k", "v", size=1)
            return [engine.get("k") is None for _ in range(50)]

        assert failure_pattern("edge-1") == failure_pattern("edge-1")
        assert failure_pattern("edge-1") != failure_pattern("edge-2")

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultyBackendSpec(error_rate=2.0)
