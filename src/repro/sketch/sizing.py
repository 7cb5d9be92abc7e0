"""Bloom filter sizing math (standard formulas).

For ``n`` expected elements and target false-positive rate ``p``:

* optimal bit count:  ``m = -n ln p / (ln 2)^2``
* optimal hash count: ``k = (m / n) ln 2``
* expected FPR at load: ``(1 - (1 - 1/m)^(k n))^k``
"""

from __future__ import annotations

import math
from typing import Optional, Tuple


def positive_int(name: str, value: object) -> int:
    """``value`` if it is a positive ``int``; a ``bool``, a float (``inf``
    and ``64.5`` included) or anything else is refused by ``name``."""
    if type(value) is bool or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def sketch_shape(
    capacity: int,
    target_fpr: float,
    bits: Optional[int],
    hashes: Optional[int],
) -> Tuple[int, int]:
    """A server sketch's ``(bits, hashes)``: as given, or sized for
    ``capacity`` keys at ``target_fpr`` when neither is given."""
    positive_int("capacity", capacity)
    if bits is None and hashes is None:
        return optimal_parameters(capacity, target_fpr)
    if bits is None or hashes is None:
        raise ValueError("bits and hashes are given together or not at all")
    return positive_int("bits", bits), positive_int("hashes", hashes)


def optimal_bits(n: int, p: float) -> int:
    """Bits needed for ``n`` elements at false-positive rate ``p``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return max(8, math.ceil(-n * math.log(p) / (math.log(2) ** 2)))


def optimal_hashes(m: int, n: int) -> int:
    """Hash function count minimizing FPR for ``m`` bits, ``n`` elements."""
    if m <= 0 or n <= 0:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    return max(1, round((m / n) * math.log(2)))


def optimal_parameters(n: int, p: float) -> Tuple[int, int]:
    """``(m, k)`` for ``n`` expected elements at target FPR ``p``."""
    m = optimal_bits(n, p)
    return m, optimal_hashes(m, n)


def expected_fpr(m: int, k: int, n: int) -> float:
    """Expected false-positive rate with ``n`` elements inserted."""
    if m <= 0 or k <= 0:
        raise ValueError(f"m and k must be positive, got m={m}, k={k}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return 0.0
    return (1.0 - (1.0 - 1.0 / m) ** (k * n)) ** k
