"""Counting Bloom filter — the server-side representation.

The server must *remove* keys from the sketch when the last unexpired
cached copy of a resource times out, which a plain Bloom filter cannot
do; counters make deletion possible. Clients never see the counters:
:meth:`flatten` produces the plain filter that goes over the wire.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sketch.bloom import BloomFilter, index_positions


class CountingBloomFilter:
    """Bloom filter with per-position counters supporting removal."""

    #: Counter dtype; saturating at 65535 is unreachable in practice.
    _DTYPE = np.uint16

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self.bits = bits
        self.hashes = hashes
        self._counts = np.zeros(bits, dtype=self._DTYPE)
        self.count = 0  # net elements currently represented
        # The flattened filter of the current counters; every mutation
        # drops it, so present means current.
        self._flat: Optional[BloomFilter] = None

    def add(self, key: str) -> None:
        positions = index_positions(key, self.bits, self.hashes)
        maxed = int(np.iinfo(self._DTYPE).max)
        for position in positions:
            if self._counts[position] < maxed:
                self._counts[position] += 1
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
        if any(self._counts[position] == 0 for position in positions):
            raise KeyError(
                f"removing {key!r} would underflow; it is not in the filter"
            )
        for position in positions:
            self._counts[position] -= 1
        self.count -= 1
        self._flat = None

    def __contains__(self, key: str) -> bool:
        positions = index_positions(key, self.bits, self.hashes)
        return all(self._counts[position] > 0 for position in positions)

    def flatten(self) -> BloomFilter:
        """The plain Bloom filter clients download.

        One immutable filter per filter version: every caller between
        two mutations gets the same object, whose array is a fresh
        read-only copy (never a view of the counters), so no holder can
        change what another holder — or a later version — sees.
        """
        flat = self._flat
        if flat is None:
            flat = BloomFilter(self.bits, self.hashes)
            flat._array = self._counts > 0
            flat._array.flags.writeable = False
            flat.count = self.count
            self._flat = flat
        return flat

    def bits_set(self) -> int:
        return int((self._counts > 0).sum())

    def fill_ratio(self) -> float:
        return self.bits_set() / self.bits

    def clear(self) -> None:
        self._counts[:] = 0
        self.count = 0
        self._flat = None

    def is_empty(self) -> bool:
        return not self._counts.any()

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(bits={self.bits}, hashes={self.hashes}, "
            f"count={self.count})"
        )
