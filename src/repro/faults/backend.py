"""Flaky storage: a wrapper engine whose reads sometimes fail.

:class:`FlakyBackend` wraps any :class:`~repro.storage.backend.CacheBackend`
and makes individual **reads** (``get`` / ``get_many``) fail with a
seeded per-key coin flip — the cache tier above sees a miss and degrades
gracefully (refetches from upstream), which is exactly how production
caches treat a storage read timeout. Writes and deletes never fail:
real deployments retry mutations until acked, and letting them fail
silently here would desynchronize the policy layer's bookkeeping
(phantom keys the store believes exist) rather than model anything a
cache would actually tolerate.

``peek`` never fails either — it is cost-free metadata access for the
co-located policy layer, not a storage round trip.

:class:`FaultyBackendSpec` is the :class:`~repro.storage.factory.BackendSpec`
subclass the harness swaps in when a fault profile carries a nonzero
``storage_error_rate``: every tier that builds an engine from the spec
transparently gets the flaky wrapper, with a salted RNG per tier so
sibling caches fail independently but deterministically.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Optional

from repro.knobs import FRACTION, integer, knob, knobs
from repro.storage.backend import CacheBackend, DelegatingBackend
from repro.storage.factory import BackendSpec


class FlakyBackend(DelegatingBackend):
    """Read-failure wrapper: overrides the two read methods only.

    Erasure is a mutation path too — it reaches the wrapped engine
    un-dropped, like everything else inherited (a failed deletion
    would be silent non-compliance, not graceful degradation).
    """

    kind = "flaky"

    def __init__(
        self,
        inner: CacheBackend,
        error_rate: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1]: {error_rate}")
        super().__init__(inner)
        self.error_rate = error_rate
        self._rng = rng or random.Random(0)
        #: Reads dropped by injected failures so far.
        self.failures = 0

    def _read_fails(self) -> bool:
        if self.error_rate <= 0:
            return False
        if self._rng.random() < self.error_rate:
            self.failures += 1
            return True
        return False

    def get(self, key: str) -> Optional[Any]:
        # ``_read_fails`` inline: the read path's one coin per call.
        if self.error_rate > 0 and self._rng.random() < self.error_rate:
            self.failures += 1
            return None
        return self.inner.get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        wanted = [key for key in keys if not self._read_fails()]
        return self.inner.get_many(wanted)


@dataclass(frozen=True)
@knobs
class FaultyBackendSpec(BackendSpec):
    """A backend spec whose built engines fail reads at ``error_rate``."""

    error_rate: float = knob(0.0, FRACTION)
    #: Seed root for the failure coin flips, salted per tier — kept
    #: separate from ``seed`` so faults never perturb latency streams.
    fault_seed: int = knob(0, integer(0))

    @classmethod
    def wrapping(
        cls, spec: BackendSpec, error_rate: float, fault_seed: int = 0
    ) -> "FaultyBackendSpec":
        """A faulty copy of ``spec`` with the same engine parameters."""
        return cls(
            **asdict(spec), error_rate=error_rate, fault_seed=fault_seed
        )

    def build(self, salt: str = "") -> CacheBackend:
        inner = super().build(salt)
        if self.error_rate <= 0:
            return inner
        rng = random.Random(
            self.fault_seed
            ^ zlib.crc32(("faults:" + salt).encode("utf-8"))
        )
        return FlakyBackend(inner, error_rate=self.error_rate, rng=rng)
