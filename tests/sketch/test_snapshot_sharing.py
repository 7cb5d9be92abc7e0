"""The sharing oracle: one immutable snapshot per filter version.

``CountingBloomFilter.flatten`` hands every caller between two
mutations the same :class:`BloomFilter` over immutable ``bytes``. Three
claims, each checked against a memo-free reference (the counters'
``count > 0`` bits packed at that instant, probed through a BLAKE2b
computation written out here, not through ``index_positions``):

(a) every snapshot's membership equals the reference taken when it was
    taken — and *stays* equal under any later server mutation (a view of
    the counters, or a missed invalidation, breaks this);
(b) two snapshots with no filter mutation between them share one filter
    object, each under its own ``generated_at``;
(c) a snapshot cannot be written to: its bytes refuse item assignment
    (``TypeError``) and ``add`` refuses (``ValueError``).

:class:`TestTheGateTrips` shows the oracle has teeth: with the
invalidation in ``remove`` disabled it fails, and so it does when every
snapshot shares one live ``bytearray``.

The machine must find the ``remove`` mutant whatever ran before it.
Hypothesis draws about one choice in twenty from the literals of every
module already imported, so a derandomized run still explores a
different path depending on which other tests shared the process. The
machine therefore does not lean on luck: ``write_a_cached_key`` puts a
key in the filter in one step (so removals are common, not rare), and
the current filter is checked against the counters after every step,
not only when the ``snapshot`` rule happens to follow a removal.
"""

import hashlib
import operator

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.sketch import CountingBloomFilter, ServerCacheSketch
from repro.sketch.bloom import _POSITIONS_MEMO_SIZE, index_positions

KEYS = ["carts/u1", "carts/u2", "products/1", "products/2", "/product/1"]
PROBES = KEYS + ["products/3", "/category/shoes", "never-written"]

#: Small on purpose: keys collide, so counters above 1 and removals
#: that leave a bit set are ordinary.
BITS, HASHES = 48, 3


def direct_positions(key, bits, hashes):
    """The Kirsch–Mitzenmacher positions, straight from the digest."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return tuple((h1 + i * h2) % bits for i in range(hashes))


def reference_bits(counting):
    """A memo-free flatten: the counters' ``count > 0`` bits, packed
    big-endian with zero pad bits (the wire layout)."""
    digits = "".join("1" if count else "0" for count in counting._counts)
    pad = -counting.bits % 8
    return int(digits + "0" * pad, 2).to_bytes((counting.bits + pad) // 8, "big")


def membership(packed):
    return {
        key: all(
            packed[p // 8] & (0x80 >> (p % 8))
            for p in direct_positions(key, BITS, HASHES)
        )
        for key in PROBES
    }


def refuses(write, error):
    try:
        write()
    except error:
        return True
    return False


def keep_flattened_filter_across_remove(monkeypatch):
    """The injected bug: ``remove`` no longer drops the memoised flat
    filter (every other mutation still does)."""
    remove = CountingBloomFilter.remove

    def remove_keeping_memo(self, key):
        memo = self._flat
        remove(self, key)
        self._flat = memo

    monkeypatch.setattr(CountingBloomFilter, "remove", remove_keeping_memo)


class _CountedMutations(CountingBloomFilter):
    """Counts the mutations the machine's rules caused indirectly."""

    mutations = 0

    def add(self, key):
        super().add(key)
        self.mutations += 1

    def remove(self, key):
        super().remove(key)
        self.mutations += 1


class SnapshotMachine(RuleBasedStateMachine):
    """Server-sketch events in any order, snapshots in between."""

    def __init__(self):
        super().__init__()
        self.sketch = ServerCacheSketch(bits=BITS, hashes=HASHES)
        self.sketch.filter = _CountedMutations(BITS, HASHES)
        self.now = 0.0
        #: (snapshot, its reference membership, mutations seen so far)
        self.taken = []

    @rule(key=st.sampled_from(KEYS), ttl=st.sampled_from([0.0, 2.0, 5.0, 30.0]))
    def report_read(self, key, ttl):
        self.sketch.report_read(key, self.now + ttl, self.now)

    @rule(key=st.sampled_from(KEYS), ttl=st.sampled_from([2.0, 5.0, 30.0]))
    def write_a_cached_key(self, key, ttl):
        """A copy is handed out, then written: the key enters the
        filter, so a later ``advance`` or ``forget_matching`` removes it."""
        self.sketch.report_read(key, self.now + ttl, self.now)
        self.sketch.report_write(key, self.now)

    @rule(key=st.sampled_from(KEYS))
    def report_write(self, key):
        self.sketch.report_write(key, self.now)

    @rule(dt=st.sampled_from([0.5, 3.0, 10.0, 40.0]))
    def advance(self, dt):
        self.now += dt
        self.sketch.advance(self.now)

    @rule(prefix=st.sampled_from(["carts/u1", "carts/", "products/"]))
    def forget_matching(self, prefix):
        self.sketch.forget_matching(
            lambda key: key.startswith(prefix), self.now
        )

    @rule()
    def snapshot(self):
        snapshot = self.sketch.snapshot(self.now)
        counting = self.sketch.filter
        assert snapshot.generated_at == self.now
        packed = snapshot.filter._packed
        assert packed == reference_bits(counting)
        if self.taken and self.taken[-1][2] == counting.mutations:
            assert snapshot.filter is self.taken[-1][0].filter
        assert refuses(lambda: operator.setitem(packed, 0, 0xFF), TypeError)
        assert refuses(lambda: snapshot.filter.add(KEYS[0]), ValueError)
        self.taken.append((snapshot, membership(packed), counting.mutations))

    @invariant()
    def the_current_filter_is_the_counters(self):
        counting = self.sketch.filter
        assert counting.flatten()._packed == reference_bits(counting)

    @invariant()
    def every_snapshot_still_says_what_it_said(self):
        for snapshot, said, _ in self.taken:
            assert {key: snapshot.contains(key) for key in PROBES} == said


_SETTINGS = settings(
    max_examples=80, stateful_step_count=40, deadline=None, derandomize=True
)

TestSnapshotSharing = SnapshotMachine.TestCase
TestSnapshotSharing.settings = _SETTINGS

#: Finding the counter-example is the point; minimising it is not.
_FIND_ONLY = settings(_SETTINGS, phases=[Phase.generate])


class TestTheGateTrips:
    def test_a_missed_invalidation_in_remove_fails_the_oracle(
        self, monkeypatch
    ):
        keep_flattened_filter_across_remove(monkeypatch)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(SnapshotMachine, settings=_FIND_ONLY)

    def test_a_view_of_live_state_fails_the_oracle(self, monkeypatch):
        """The other way to get it wrong: every snapshot holds one live
        ``bytearray`` the server keeps updating."""
        flatten = CountingBloomFilter.flatten

        def flatten_aliasing(self):
            flat = flatten(self)
            live = self.__dict__.setdefault(
                "_live_bits", bytearray(len(flat._packed))
            )
            live[:] = self._nonzero
            flat._packed = live
            return flat

        monkeypatch.setattr(CountingBloomFilter, "flatten", flatten_aliasing)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(SnapshotMachine, settings=_FIND_ONLY)


class TestMemoisedPositions:
    """Memoised positions ≡ the direct computation."""

    PARAMETERS = [(48, 3), (48, 4), (64, 3), (124_705, 4), (7, 1)]

    @pytest.mark.parametrize("bits,hashes", PARAMETERS)
    def test_same_key_under_other_parameters_does_not_collide(
        self, bits, hashes
    ):
        for key in PROBES:
            for other_bits, other_hashes in self.PARAMETERS:
                index_positions(key, other_bits, other_hashes)
            assert index_positions(key, bits, hashes) == direct_positions(
                key, bits, hashes
            )

    def test_past_the_memo_bound(self):
        index_positions.cache_clear()
        try:
            first = [f"k{i}" for i in range(50)]
            for key in first:
                index_positions(key, 1024, 4)
            for i in range(_POSITIONS_MEMO_SIZE + 10):
                index_positions(f"filler-{i}", 1024, 4)
            info = index_positions.cache_info()
            assert info.currsize == info.maxsize == _POSITIONS_MEMO_SIZE
            for key in first:  # evicted, recomputed, still right
                assert index_positions(key, 1024, 4) == direct_positions(
                    key, 1024, 4
                )
        finally:
            index_positions.cache_clear()
