"""Tests for the server/client Cache Sketch protocol objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import ServerCacheSketch


@pytest.fixture
def sketch():
    return ServerCacheSketch(capacity=1000, target_fpr=0.01)


class TestWriteSemantics:
    def test_write_without_cached_copies_not_added(self, sketch):
        assert not sketch.report_write("k", now=10.0)
        assert not sketch.contains("k", now=10.0)

    def test_write_with_unexpired_copy_added(self, sketch):
        sketch.report_read("k", expires_at=100.0, now=0.0)
        assert sketch.report_write("k", now=10.0)
        assert sketch.contains("k", now=10.0)

    def test_write_after_copy_expired_not_added(self, sketch):
        sketch.report_read("k", expires_at=50.0, now=0.0)
        assert not sketch.report_write("k", now=60.0)
        assert not sketch.contains("k", now=60.0)

    def test_key_leaves_sketch_when_copies_expire(self, sketch):
        sketch.report_read("k", expires_at=100.0, now=0.0)
        sketch.report_write("k", now=10.0)
        assert sketch.contains("k", now=99.0)
        assert not sketch.contains("k", now=100.0)

    def test_removal_uses_latest_expiration(self, sketch):
        sketch.report_read("k", expires_at=50.0, now=0.0)
        sketch.report_read("k", expires_at=200.0, now=1.0)
        sketch.report_write("k", now=10.0)
        assert sketch.contains("k", now=150.0)
        assert not sketch.contains("k", now=200.0)

    def test_expired_read_is_ignored(self, sketch):
        sketch.report_read("k", expires_at=5.0, now=10.0)
        assert not sketch.report_write("k", now=11.0)

    def test_double_write_single_membership(self, sketch):
        sketch.report_read("k", expires_at=100.0, now=0.0)
        sketch.report_write("k", now=10.0)
        sketch.report_write("k", now=20.0)
        assert sketch.stale_key_count(now=20.0) == 1
        assert not sketch.contains("k", now=100.0)

    def test_second_write_extends_removal_for_newer_copies(self, sketch):
        sketch.report_read("k", expires_at=100.0, now=0.0)
        sketch.report_write("k", now=10.0)
        # New version handed out, cached until t=300.
        sketch.report_read("k", expires_at=300.0, now=20.0)
        # That newer copy goes stale too:
        sketch.report_write("k", now=30.0)
        assert sketch.contains("k", now=250.0)
        assert not sketch.contains("k", now=300.0)

    def test_fresh_read_does_not_extend_pending_removal(self, sketch):
        sketch.report_read("k", expires_at=100.0, now=0.0)
        sketch.report_write("k", now=10.0)
        # Copy of the *new* version handed out with a long lifetime:
        sketch.report_read("k", expires_at=500.0, now=20.0)
        # Without further writes the key leaves at the *old* horizon.
        assert not sketch.contains("k", now=100.0)


class TestSnapshot:
    def test_snapshot_contains_stale_keys_only(self, sketch):
        sketch.report_read("stale", expires_at=100.0, now=0.0)
        sketch.report_read("fresh", expires_at=100.0, now=0.0)
        sketch.report_write("stale", now=10.0)
        snap = sketch.snapshot(now=20.0)
        assert snap.contains("stale")
        assert not snap.contains("fresh")
        assert snap.generated_at == 20.0

    def test_snapshot_is_immutable_view(self, sketch):
        sketch.report_read("a", expires_at=100.0, now=0.0)
        snap = sketch.snapshot(now=1.0)
        sketch.report_write("a", now=2.0)
        assert not snap.contains("a")  # taken before the write

    def test_snapshot_age(self, sketch):
        snap = sketch.snapshot(now=10.0)
        assert snap.age(now=25.0) == 15.0
        assert snap.age(now=5.0) == 0.0

    def test_snapshot_advances_removals(self, sketch):
        sketch.report_read("k", expires_at=50.0, now=0.0)
        sketch.report_write("k", now=10.0)
        snap = sketch.snapshot(now=60.0)
        assert not snap.contains("k")

    def test_transfer_size_matches_filter(self, sketch):
        snap = sketch.snapshot(now=0.0)
        assert snap.transfer_size_bytes() == (
            snap.filter.transfer_size_bytes()
        )


class TestBookkeeping:
    def test_counters(self, sketch):
        sketch.report_read("a", expires_at=10.0, now=0.0)
        sketch.report_read("b", expires_at=10.0, now=0.0)
        sketch.report_write("a", now=1.0)
        assert sketch.reads_reported == 2
        assert sketch.writes_reported == 1
        assert sketch.additions == 1

    def test_stale_key_count(self, sketch):
        for key in ("a", "b", "c"):
            sketch.report_read(key, expires_at=100.0, now=0.0)
        sketch.report_write("a", now=1.0)
        sketch.report_write("b", now=1.0)
        assert sketch.stale_key_count(now=1.0) == 2
        assert sketch.stale_key_count(now=100.0) == 0


class TestPlaintextKeys:
    """What the sketch holds in plaintext, stated once: the GDPR
    residual check, the access report and the erase all read it."""

    def of_u1(self, key):
        return key.startswith("carts/u1")

    def test_keys_matching_is_sorted_and_mutates_nothing(self, sketch):
        for key in ("carts/u1/b", "carts/u2", "carts/u1/a"):
            sketch.report_read(key, expires_at=100.0, now=0.0)
        sketch.report_write("carts/u1/b", now=1.0)  # tracked and stale
        before = repr(sketch)
        assert sketch.keys_matching(self.of_u1) == ["carts/u1/a", "carts/u1/b"]
        assert sketch.keys_matching(lambda key: False) == []
        assert repr(sketch) == before
        assert sketch.contains("carts/u1/b", now=1.0)

    def test_forget_matching_leaves_nothing_to_match(self, sketch):
        for key in ("carts/u1/b", "carts/u2", "carts/u1/a"):
            sketch.report_read(key, expires_at=100.0, now=0.0)
            sketch.report_write(key, now=1.0)
        assert sketch.forget_matching(self.of_u1, now=2.0) == 2
        assert sketch.keys_matching(self.of_u1) == []
        assert sketch.keys_matching(lambda key: True) == ["carts/u2"]
        assert not sketch.contains("carts/u1/a", now=2.0)
        assert sketch.stale_key_count(now=2.0) == 1


class TestOverload:
    def test_saturation_degrades_to_revalidation_not_staleness(self):
        """A sketch sized for 50 keys loaded with 5000: the fill ratio
        explodes and false positives approach 1 — which costs
        revalidations, never staleness. No key already marked stale is
        ever reported absent."""
        sketch = ServerCacheSketch(capacity=50, target_fpr=0.05)
        for i in range(5000):
            key = f"k{i}"
            sketch.report_read(key, expires_at=10_000.0, now=0.0)
            sketch.report_write(key, now=1.0)
        snapshot = sketch.snapshot(now=2.0)
        # Safety holds under gross overload.
        assert all(snapshot.contains(f"k{i}") for i in range(5000))
        # The filter is (near-)saturated; clients just revalidate more.
        assert snapshot.filter.fill_ratio() > 0.9

    def test_recovery_after_overload(self):
        """Once the overload's copies expire, the filter empties and
        the false-positive rate returns to normal."""
        sketch = ServerCacheSketch(capacity=50, target_fpr=0.05)
        for i in range(5000):
            key = f"k{i}"
            sketch.report_read(key, expires_at=100.0, now=0.0)
            sketch.report_write(key, now=1.0)
        sketch.advance(now=200.0)
        assert sketch.filter.bits_set() == 0
        assert sketch.stale_key_count(200.0) == 0


class TestPropertyBased:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.sampled_from(["k1", "k2", "k3"]),
                st.floats(0.1, 50.0),  # ttl for reads
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_filter_never_underflows_and_empties_eventually(self, events):
        sketch = ServerCacheSketch(capacity=100, target_fpr=0.05)
        now = 0.0
        for kind, key, ttl in events:
            now += 1.0
            if kind == "read":
                sketch.report_read(key, expires_at=now + ttl, now=now)
            else:
                sketch.report_write(key, now=now)
        # After every expiration horizon passes, the filter must be
        # completely empty again (all removals fire, no leaks).
        sketch.advance(now + 100.0)
        assert sketch.filter.bits_set() == 0
        assert sketch.stale_key_count(now + 100.0) == 0

    @given(
        ttls=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=20),
    )
    @settings(max_examples=60)
    def test_key_in_sketch_exactly_until_max_expiration(self, ttls):
        sketch = ServerCacheSketch(capacity=100, target_fpr=0.05)
        for i, ttl in enumerate(ttls):
            sketch.report_read("k", expires_at=ttl, now=0.0)
        sketch.report_write("k", now=0.5)
        horizon = max(ttls)
        if horizon > 0.5:
            assert sketch.contains("k", now=horizon - 1e-6)
        assert not sketch.contains("k", now=horizon)
