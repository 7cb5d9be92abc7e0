"""Tests for the counting Bloom filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import CountingBloomFilter


class TestAddRemove:
    def test_add_then_contains(self):
        cbf = CountingBloomFilter(bits=512, hashes=3)
        cbf.add("k")
        assert "k" in cbf
        assert cbf.count == 1

    def test_remove_makes_key_disappear(self):
        cbf = CountingBloomFilter(bits=512, hashes=3)
        cbf.add("k")
        cbf.remove("k")
        assert "k" not in cbf
        assert cbf.count == 0
        assert cbf.bits_set() == 0

    def test_double_add_needs_double_remove(self):
        cbf = CountingBloomFilter(bits=512, hashes=3)
        cbf.add("k")
        cbf.add("k")
        cbf.remove("k")
        assert "k" in cbf
        cbf.remove("k")
        assert "k" not in cbf

    def test_removing_absent_key_raises(self):
        cbf = CountingBloomFilter(bits=512, hashes=3)
        with pytest.raises(KeyError):
            cbf.remove("never-added")

    def test_removal_does_not_disturb_other_keys(self):
        cbf = CountingBloomFilter(bits=4096, hashes=3)
        for i in range(100):
            cbf.add(f"keep-{i}")
        cbf.add("victim")
        cbf.remove("victim")
        assert all(f"keep-{i}" in cbf for i in range(100))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(bits=-1, hashes=3)
        with pytest.raises(ValueError):
            CountingBloomFilter(bits=16, hashes=0)


class TestFlatten:
    def test_flatten_preserves_membership(self):
        cbf = CountingBloomFilter(bits=1024, hashes=4)
        for i in range(30):
            cbf.add(f"k{i}")
        flat = cbf.flatten()
        assert all(f"k{i}" in flat for i in range(30))
        assert flat.bits_set() == cbf.bits_set()
        assert flat.count == cbf.count

    def test_flatten_is_a_snapshot(self):
        cbf = CountingBloomFilter(bits=1024, hashes=4)
        cbf.add("old")
        flat = cbf.flatten()
        cbf.add("new")
        assert "new" not in flat


class TestProperties:
    @given(
        keys=st.lists(
            st.text(min_size=1, max_size=15), min_size=1, max_size=40
        )
    )
    @settings(max_examples=50)
    def test_add_all_remove_all_yields_empty(self, keys):
        cbf = CountingBloomFilter(bits=2048, hashes=3)
        for key in keys:
            cbf.add(key)
        for key in keys:
            cbf.remove(key)
        assert cbf.bits_set() == 0
        assert cbf.count == 0

    @given(
        keys=st.lists(
            st.text(min_size=1, max_size=15),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    @settings(max_examples=50)
    def test_removing_half_keeps_other_half(self, keys):
        cbf = CountingBloomFilter(bits=4096, hashes=3)
        for key in keys:
            cbf.add(key)
        half = len(keys) // 2
        for key in keys[:half]:
            cbf.remove(key)
        # No false negatives on the survivors.
        assert all(key in cbf for key in keys[half:])
