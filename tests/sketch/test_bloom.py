"""Tests for the plain Bloom filter."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import BloomFilter
from repro.sketch.bloom import index_positions


class TestBasics:
    def test_added_keys_are_found(self):
        bf = BloomFilter(bits=1024, hashes=3)
        bf.add("alpha")
        bf.add("beta")
        assert "alpha" in bf
        assert "beta" in bf

    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(bits=1024, hashes=3)
        assert "anything" not in bf
        assert bf.bits_set() == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=0, hashes=3)
        with pytest.raises(ValueError):
            BloomFilter(bits=10, hashes=0)

    def test_positions_deterministic(self):
        a = index_positions("key", 1000, 5)
        b = index_positions("key", 1000, 5)
        assert a == b
        assert len(a) == 5
        assert all(0 <= p < 1000 for p in a)


class TestStatistics:
    def test_fill_ratio_and_bits_set(self):
        bf = BloomFilter(bits=100, hashes=2)
        assert bf.fill_ratio() == 0.0
        bf.add("x")
        assert 1 <= bf.bits_set() <= 2
        assert bf.fill_ratio() == bf.bits_set() / 100

    def test_measured_fpr_close_to_theory(self):
        # 1000 elements in an (m, k) sized for 5% FPR: measure on keys
        # never inserted.
        from repro.sketch import optimal_parameters

        m, k = optimal_parameters(1000, 0.05)
        bf = BloomFilter(m, k)
        for i in range(1000):
            bf.add(f"member-{i}")
        false_positives = sum(
            1 for i in range(10_000) if f"other-{i}" in bf
        )
        assert false_positives / 10_000 == pytest.approx(0.05, abs=0.02)


class TestSetOperations:
    def test_union(self):
        a = BloomFilter(bits=512, hashes=3)
        b = BloomFilter(bits=512, hashes=3)
        a.add("left")
        b.add("right")
        both = a.union(b)
        assert "left" in both and "right" in both

    def test_union_requires_same_parameters(self):
        a = BloomFilter(bits=512, hashes=3)
        b = BloomFilter(bits=256, hashes=3)
        with pytest.raises(ValueError):
            a.union(b)


class TestSerialization:
    def test_transfer_size(self):
        assert BloomFilter(bits=300, hashes=4).transfer_size_bytes() == 38
        assert BloomFilter(bits=8, hashes=1).transfer_size_bytes() == 1

    # The filter ships HTTP-compressed: sparse filters (few stale keys,
    # the common case) are mostly zero bytes.
    def test_sparse_filters_compress_well(self):
        bf = BloomFilter(bits=80_000, hashes=5)
        for i in range(10):  # very sparse
            bf.add(f"k{i}")
        compressed = len(zlib.compress(bf.to_bytes(), level=6))
        assert compressed < bf.transfer_size_bytes() / 5

    def test_dense_filters_compress_poorly(self):
        bf = BloomFilter(bits=8_000, hashes=5)
        for i in range(5_000):  # near-saturated
            bf.add(f"k{i}")
        # Compression cannot do much for random dense bits.
        compressed = len(zlib.compress(bf.to_bytes(), level=6))
        assert compressed > bf.transfer_size_bytes() / 3


class TestProperties:
    @given(keys=st.lists(st.text(min_size=1, max_size=30), max_size=100))
    @settings(max_examples=50)
    def test_no_false_negatives_ever(self, keys):
        bf = BloomFilter(bits=2048, hashes=4)
        for key in keys:
            bf.add(key)
        assert all(key in bf for key in keys)
