"""Plain Bloom filter.

Uses the Kirsch–Mitzenmacher double-hashing scheme: two independent
64-bit hashes ``h1``, ``h2`` derived from BLAKE2b expand into ``k``
positions ``(h1 + i * h2) mod m``. Hashing is fully deterministic
across processes and runs (no Python hash randomization).

A filter is its wire bytes: bits packed big-endian, eight to a byte,
bit ``p`` being ``0x80 >> (p % 8)`` of byte ``p // 8``, with the pad
bits past ``bits`` zero. A filter being built holds a ``bytearray``; a
flattened server filter holds immutable ``bytes``, because every client
of that filter version shares it.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Tuple, Union

from repro.sketch.sizing import positive_int


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


def popcount(packed: bytes) -> int:
    """Set bits of a packed bit array."""
    return int.from_bytes(packed, "big").bit_count()


class BloomFilter:
    """A fixed-size bit array supporting add and membership tests."""

    def __init__(self, bits: int, hashes: int) -> None:
        self.bits = positive_int("bits", bits)
        self.hashes = positive_int("hashes", hashes)
        self._packed: Union[bytearray, bytes] = bytearray((bits + 7) // 8)
        self.count = 0  # elements added (approximate if duplicates added)

    def add(self, key: str) -> None:
        """Insert ``key``.

        Raises ``ValueError`` on a flattened server filter, whose bytes
        are immutable because every client of that version shares them.
        """
        packed = self._packed
        if isinstance(packed, bytes):
            raise ValueError(
                "a flattened filter is shared by every client of its "
                "version and cannot be written to"
            )
        for position in index_positions(key, self.bits, self.hashes):
            packed[position >> 3] |= 0x80 >> (position & 7)
        self.count += 1

    def __contains__(self, key: str) -> bool:
        packed = self._packed
        for position in index_positions(key, self.bits, self.hashes):
            if not packed[position >> 3] & (0x80 >> (position & 7)):
                return False
        return True

    def bits_set(self) -> int:
        """Population count — number of set bits."""
        return popcount(self._packed)

    def fill_ratio(self) -> float:
        """Fraction of bits set (drives the observed FPR)."""
        return self.bits_set() / self.bits

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two compatible filters, as a private writable
        filter."""
        if (self.bits, self.hashes) != (other.bits, other.hashes):
            raise ValueError(
                "cannot union filters with different parameters: "
                f"({self.bits},{self.hashes}) vs ({other.bits},{other.hashes})"
            )
        merged = int.from_bytes(self._packed, "big") | int.from_bytes(
            other._packed, "big"
        )
        result = BloomFilter(self.bits, self.hashes)
        result._packed[:] = merged.to_bytes(len(self._packed), "big")
        result.count = self.count + other.count
        return result

    def to_bytes(self) -> bytes:
        """Serialized bit array (what clients download every Δ)."""
        return bytes(self._packed)

    def transfer_size_bytes(self) -> int:
        """Bytes on the wire for one sketch download (uncompressed)."""
        return len(self._packed)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.bits}, hashes={self.hashes}, "
            f"set={self.bits_set()})"
        )
