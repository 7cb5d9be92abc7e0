"""Plain Bloom filter.

Uses the Kirsch–Mitzenmacher double-hashing scheme: two independent
64-bit hashes ``h1``, ``h2`` derived from BLAKE2b expand into ``k``
positions ``(h1 + i * h2) mod m``. Hashing is fully deterministic
across processes and runs (no Python hash randomization).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np


def _base_hashes(key: str) -> Tuple[int, int]:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full cycle
    return h1, h2


#: Distinct ``(key, bits, hashes)`` whose positions stay memoised. A
#: site's cache keys are far fewer; the bound is for per-user keys at
#: large populations (least recently used are recomputed).
_POSITIONS_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=_POSITIONS_MEMO_SIZE)
def index_positions(key: str, bits: int, hashes: int) -> Tuple[int, ...]:
    """The ``hashes`` bit positions of ``key`` in a ``bits``-wide filter.

    A pure function of its arguments, and every client asks about the
    same keys, so the BLAKE2b digest is taken once per key.
    """
    h1, h2 = _base_hashes(key)
    return tuple((h1 + i * h2) % bits for i in range(hashes))


class BloomFilter:
    """A fixed-size bit array supporting add and membership tests."""

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self.bits = bits
        self.hashes = hashes
        self._array = np.zeros(bits, dtype=bool)
        self.count = 0  # elements added (approximate if duplicates added)

    def add(self, key: str) -> None:
        """Insert ``key``.

        Raises ``ValueError`` on a flattened server filter, whose array
        is read-only because every client of that version shares it.
        """
        array = self._array
        for position in index_positions(key, self.bits, self.hashes):
            array[position] = True
        self.count += 1

    def update(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: str) -> bool:
        # Position by position: a handful of scalar reads that stop at
        # the first clear bit beat building a fancy-indexed array.
        array = self._array
        for position in index_positions(key, self.bits, self.hashes):
            if not array[position]:
                return False
        return True

    def bits_set(self) -> int:
        """Population count — number of set bits."""
        return int(self._array.sum())

    def fill_ratio(self) -> float:
        """Fraction of bits set (drives the observed FPR)."""
        return self.bits_set() / self.bits

    def observed_fpr(self) -> float:
        """FPR implied by the current fill ratio: ``fill^k``."""
        return self.fill_ratio() ** self.hashes

    def estimated_cardinality(self) -> float:
        """Estimate distinct elements from the fill ratio (swamidass)."""
        zero_fraction = 1.0 - self.fill_ratio()
        if zero_fraction <= 0.0:
            return float("inf")
        return -(self.bits / self.hashes) * float(np.log(zero_fraction))

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two compatible filters."""
        if (self.bits, self.hashes) != (other.bits, other.hashes):
            raise ValueError(
                "cannot union filters with different parameters: "
                f"({self.bits},{self.hashes}) vs ({other.bits},{other.hashes})"
            )
        result = BloomFilter(self.bits, self.hashes)
        result._array = self._array | other._array
        result.count = self.count + other.count
        return result

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.bits, self.hashes)
        clone._array = self._array.copy()
        clone.count = self.count
        return clone

    def clear(self) -> None:
        self._array[:] = False
        self.count = 0

    def is_empty(self) -> bool:
        return not self._array.any()

    def to_bytes(self) -> bytes:
        """Serialized bit array (what clients download every Δ)."""
        return np.packbits(self._array).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, bits: int, hashes: int) -> "BloomFilter":
        bf = cls(bits, hashes)
        unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if len(unpacked) < bits:
            raise ValueError(
                f"payload holds {len(unpacked)} bits, need {bits}"
            )
        bf._array = unpacked[:bits].astype(bool)
        return bf

    def transfer_size_bytes(self) -> int:
        """Bytes on the wire for one sketch download (uncompressed)."""
        return (self.bits + 7) // 8

    def compressed_size_bytes(self) -> int:
        """Bytes on the wire with HTTP compression applied.

        Sparse filters (the common case: few stale keys) compress very
        well; the production system ships the filter gzip-compressed.
        """
        import zlib

        return len(zlib.compress(self.to_bytes(), level=6))

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.bits}, hashes={self.hashes}, "
            f"set={self.bits_set()})"
        )
