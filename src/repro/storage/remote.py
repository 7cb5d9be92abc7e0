"""Simulated remote KV engine: Redis-like storage with operation cost.

Wraps any local engine and charges every protocol operation a latency
drawn from a :class:`~repro.simnet.delay.Delay` distribution — the
same log-normal family the network model uses. The cost accrues in a
pending pool; the transport layer drains the pool into simulated time
(``yield env.timeout(backend.drain_latency())``), so choosing a remote
backend measurably shifts page load times and invalidation latency —
the polyglot trade-off the paper's architecture is built around.

The engine is the degenerate case of the pipelined
:class:`~repro.storage.batched.BatchedRemoteBackend`: a one-key batch
window with no marginal per-key cost, so every operation opens (and
closes) its own batch and pays one full round trip — the same draw
from the same stream, drained in full at every drain point.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simnet.delay import Delay
from repro.storage.backend import CacheBackend
from repro.storage.batched import BatchedRemoteBackend


class SimulatedRemoteBackend(BatchedRemoteBackend):
    """A remote KV store: a wrapped engine plus per-operation latency."""

    kind = "remote"

    def __init__(
        self,
        inner: Optional[CacheBackend] = None,
        read_delay: Optional[Delay] = None,
        write_delay: Optional[Delay] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            inner=inner,
            read_delay=read_delay,
            write_delay=write_delay,
            per_key_cost=0.0,
            batch_window=1,
            rng=rng,
        )
