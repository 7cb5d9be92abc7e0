"""Counting Bloom filter — the server-side representation.

The server must *remove* keys from the sketch when the last unexpired
cached copy of a resource times out, which a plain Bloom filter cannot
do; counters make deletion possible. Clients never see the counters:
:meth:`flatten` produces the plain filter that goes over the wire.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.sketch.bloom import BloomFilter, index_positions, popcount
from repro.sketch.sizing import positive_int

#: Counters saturate here rather than wrap; unreachable in practice.
_MAX_COUNT = 0xFFFF


class CountingBloomFilter:
    """Bloom filter with per-position counters supporting removal.

    Beside the 16-bit counters it keeps the packed "count > 0" map, the
    flattened filter's wire bytes, touched only when a counter moves
    between 0 and 1: flattening is one copy of it.
    """

    def __init__(self, bits: int, hashes: int) -> None:
        self.bits = positive_int("bits", bits)
        self.hashes = positive_int("hashes", hashes)
        self._counts = array("H", [0]) * bits
        self._nonzero = bytearray((bits + 7) // 8)
        self.count = 0  # net elements currently represented
        # The flattened filter of the current counters; every mutation
        # drops it, so present means current.
        self._flat: Optional[BloomFilter] = None

    def add(self, key: str) -> None:
        counts = self._counts
        for position in index_positions(key, self.bits, self.hashes):
            count = counts[position]
            if count == 0:
                self._nonzero[position >> 3] |= 0x80 >> (position & 7)
            if count < _MAX_COUNT:
                counts[position] = count + 1
        self.count += 1
        self._flat = None

    def remove(self, key: str) -> None:
        """Remove one previous insertion of ``key``.

        Removing a key that was never added corrupts a counting Bloom
        filter silently; we raise instead when a counter would go
        negative. (This cannot catch *every* misuse, but catches the
        common bug.)
        """
        positions = index_positions(key, self.bits, self.hashes)
        counts = self._counts
        if not all(counts[position] for position in positions):
            raise KeyError(
                f"removing {key!r} would underflow; it is not in the filter"
            )
        for position in positions:
            count = counts[position] - 1
            counts[position] = count
            if count == 0:
                self._nonzero[position >> 3] &= ~(0x80 >> (position & 7))
        self.count -= 1
        self._flat = None

    def __contains__(self, key: str) -> bool:
        counts = self._counts
        for position in index_positions(key, self.bits, self.hashes):
            if not counts[position]:
                return False
        return True

    def flatten(self) -> BloomFilter:
        """The plain Bloom filter clients download.

        One immutable filter per filter version: every caller between
        two mutations gets the same object, whose bytes are a copy of
        the "count > 0" map (never the map itself), so no holder can
        change what another holder — or a later version — sees.
        """
        flat = self._flat
        if flat is None:
            flat = BloomFilter(self.bits, self.hashes)
            flat._packed = bytes(self._nonzero)
            flat.count = self.count
            self._flat = flat
        return flat

    def bits_set(self) -> int:
        return popcount(self._nonzero)

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(bits={self.bits}, hashes={self.hashes}, "
            f"count={self.count})"
        )
