"""Erasure hooks across every storage engine.

Each engine must support the same four GDPR primitives the coordinator
walks: ``erase_matching`` (scan + one batched removal),
``scrub_pending`` (cancel queued asynchronous mutations in place),
``residuals_matching`` (deep, overlay-bypassing completeness view) and
``sync`` (the durability barrier). The polyglot claim only holds if
the walk behaves identically no matter which engine backs a tier.
"""

import random

import pytest

from repro.faults.backend import FlakyBackend
from repro.gdpr import UserDataMatcher
from repro.storage import BACKEND_KINDS, BackendSpec, WriteBehindBackend


def _build(kind):
    tuning = {"n_shards": 4} if kind == "sharded" else {}
    return BackendSpec(kind=kind, seed=0, **tuning).build()


def _seed_entries(backend):
    backend.put("/carts/u1", "cart of u1", 10)
    backend.put("/profile?user=u1", {"owner": "u1"}, 8)
    backend.put("/carts/u12", "cart of u12", 10)
    backend.put("/static/logo.png", "binary", 4)


@pytest.fixture(params=BACKEND_KINDS)
def backend(request):
    return _build(request.param)


class TestEraseMatching:
    def test_removes_exactly_the_matching_entries(self, backend):
        _seed_entries(backend)
        matcher = UserDataMatcher("u1")
        removed = backend.erase_matching(matcher.matches_entry)
        assert sorted(removed) == ["/carts/u1", "/profile?user=u1"]

    def test_bystanders_survive(self, backend):
        _seed_entries(backend)
        backend.erase_matching(UserDataMatcher("u1").matches_entry)
        backend.sync()
        assert backend.get("/carts/u12") == "cart of u12"
        assert backend.get("/static/logo.png") == "binary"

    def test_no_residuals_after_erase(self, backend):
        _seed_entries(backend)
        matcher = UserDataMatcher("u1")
        backend.erase_matching(matcher.matches_entry)
        backend.sync()
        assert backend.residuals_matching(matcher.matches_entry) == []

    def test_erase_on_empty_backend_is_a_noop(self, backend):
        matcher = UserDataMatcher("u1")
        assert backend.erase_matching(matcher.matches_entry) == {}
        assert backend.residuals_matching(matcher.matches_entry) == []

    def test_matches_values_not_just_keys(self, backend):
        backend.put("/page/cached", {"viewer": "u1", "html": "..."}, 12)
        matcher = UserDataMatcher("u1")
        removed = backend.erase_matching(matcher.matches_entry)
        assert list(removed) == ["/page/cached"]


class TestSyncBarrier:
    def test_synchronous_engines_are_always_durable(self):
        for kind in ("inmemory", "sharded", "remote", "batched"):
            assert _build(kind).scrub_pending(lambda k, v: True) == 0

    def test_sync_returns_simulated_seconds(self, backend):
        _seed_entries(backend)
        assert backend.sync() >= 0.0


class TestWriteBehindScrubbing:
    """The engine where erasure really races acknowledgement: queued
    puts are acknowledged but not yet applied to the wrapped engine."""

    def _backend(self) -> WriteBehindBackend:
        return _build("write-behind")

    def test_acknowledged_puts_are_visible_before_flush(self):
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        assert backend.get("/carts/u1") == "cart of u1"
        assert backend.queued_matching(
            UserDataMatcher("u1").matches_entry
        ) == ["/carts/u1"]

    def test_scrub_pending_cancels_the_queued_put(self):
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        matcher = UserDataMatcher("u1")
        assert backend.scrub_pending(matcher.matches_entry) == 1
        # The ack is withdrawn locally ...
        assert backend.get("/carts/u1") is None
        # ... and the queue no longer carries the payload.
        assert backend.queued_matching(matcher.matches_entry) == []

    def test_scrubbed_bytes_never_reach_the_inner_engine(self):
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        matcher = UserDataMatcher("u1")
        backend.scrub_pending(matcher.matches_entry)
        backend.sync()
        assert backend.inner.get("/carts/u1") is None
        assert backend.residuals_matching(matcher.matches_entry) == []

    def test_residuals_see_through_the_tombstone_overlay(self):
        """A remove overlay must not mask bytes still queued or stored
        in the wrapped engine: the deep view reports them."""
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        backend.sync()  # now the inner engine holds the bytes
        backend.remove("/carts/u1")  # overlay tombstone, not yet flushed
        assert backend.get("/carts/u1") is None
        matcher = UserDataMatcher("u1")
        residuals = backend.residuals_matching(matcher.matches_entry)
        assert "/carts/u1" in residuals

    def test_sync_flushes_the_erase_to_durability(self):
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        backend.sync()
        matcher = UserDataMatcher("u1")
        backend.erase_matching(matcher.matches_entry)
        backend.sync()
        assert backend.residuals_matching(matcher.matches_entry) == []
        assert backend.inner.get("/carts/u1") is None

    def test_bystander_queued_puts_survive_the_scrub(self):
        backend = self._backend()
        backend.put("/carts/u1", "cart of u1", 10)
        backend.put("/carts/u12", "cart of u12", 10)
        backend.scrub_pending(UserDataMatcher("u1").matches_entry)
        backend.sync()
        assert backend.get("/carts/u12") == "cart of u12"
        assert backend.inner.get("/carts/u12") == "cart of u12"


class TestFlakyDelegation:
    """Fault injection drops reads, never erasures: every GDPR hook
    must reach the wrapped engine even at 100% read-error rate."""

    def _flaky(self, kind="write-behind"):
        return FlakyBackend(
            _build(kind), error_rate=1.0, rng=random.Random(7)
        )

    def test_erase_succeeds_despite_read_faults(self):
        backend = self._flaky()
        backend.put("/carts/u1", "cart of u1", 10)
        matcher = UserDataMatcher("u1")
        removed = backend.erase_matching(matcher.matches_entry)
        assert list(removed) == ["/carts/u1"]
        backend.sync()
        assert backend.residuals_matching(matcher.matches_entry) == []

    def test_scrub_and_queue_views_reach_the_inner_engine(self):
        backend = self._flaky()
        backend.put("/carts/u1", "cart of u1", 10)
        matcher = UserDataMatcher("u1")
        assert backend.queued_matching(matcher.matches_entry) == [
            "/carts/u1"
        ]
        assert backend.scrub_pending(matcher.matches_entry) == 1
        assert backend.queued_matching(matcher.matches_entry) == []
