"""The Cache Sketch's wire format, pinned.

``fixtures/wire_format.json`` was recorded with the earlier filter, a
numpy bool array serialised by ``np.packbits``: ``to_bytes()`` of small
filters holding :data:`KEYS`, and the sizes and digest of a production-
sized (124,705 bits, 4 hashes) one. The packed-bit filter must produce
the same bytes, so what a client downloads, and E4's sizes, are
unchanged.
"""

import hashlib
import json
import zlib
from pathlib import Path

import pytest

from repro.sketch import BloomFilter, CountingBloomFilter

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "wire_format.json").read_text()
)
KEYS = FIXTURE["keys"]


def holding_keys(bits, hashes):
    bf = BloomFilter(bits, hashes)
    for key in KEYS:
        bf.add(key)
    return bf


@pytest.mark.parametrize(
    "recorded", FIXTURE["filters"], ids=lambda f: f"{f['bits']}x{f['hashes']}"
)
class TestSmallFilters:
    def test_bytes_are_the_recorded_bytes(self, recorded):
        bf = holding_keys(recorded["bits"], recorded["hashes"])
        assert bf.to_bytes().hex() == recorded["to_bytes_hex"]
        assert bf.bits_set() == recorded["bits_set"]

    def test_a_flattened_counting_filter_sends_the_same_bytes(self, recorded):
        counting = CountingBloomFilter(recorded["bits"], recorded["hashes"])
        for key in KEYS + ["transient"]:
            counting.add(key)
        counting.remove("transient")
        assert counting.flatten().to_bytes().hex() == recorded["to_bytes_hex"]
        assert counting.bits_set() == recorded["bits_set"]


class TestProductionSizedFilter:
    LARGE = FIXTURE["large"]

    def test_sizes_and_digest(self):
        bits, hashes = self.LARGE["bits"], self.LARGE["hashes"]
        empty = BloomFilter(bits, hashes)
        assert len(zlib.compress(empty.to_bytes(), level=6)) == (
            self.LARGE["empty_compressed_size_bytes"]
        )
        bf = holding_keys(bits, hashes)
        data = bf.to_bytes()
        assert hashlib.sha256(data).hexdigest() == self.LARGE["to_bytes_sha256"]
        assert len(zlib.compress(data, level=6)) == (
            self.LARGE["compressed_size_bytes"]
        )
        assert bf.transfer_size_bytes() == len(data)
        assert len(data) == self.LARGE["transfer_size_bytes"]
        assert bf.bits_set() == self.LARGE["bits_set"]


def test_unions_of_a_snapshot_are_private_and_writable():
    counting = CountingBloomFilter(48, 3)
    counting.add(KEYS[0])
    snapshot = counting.flatten()
    with pytest.raises(ValueError):
        snapshot.add(KEYS[1])
    private = snapshot.union(BloomFilter(48, 3))
    private.add(KEYS[1])
    assert KEYS[1] in private and KEYS[1] not in snapshot
    assert snapshot.to_bytes() == counting.flatten().to_bytes()
