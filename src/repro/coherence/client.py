"""Client-side sketch management: fetch, hold, refresh.

The service worker keeps one :class:`ClientCacheSketch` and refreshes
it every ``refresh_interval`` (the protocol's Δ knob) — either via the
periodic background process or eagerly on navigation. Sketch downloads
travel over the same simulated network as everything else, so their
cost (one round trip plus the filter's bytes) shows up in experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional

from repro.obs.tracer import NOOP_TRACER
from repro.sim.environment import Environment
from repro.sim.metrics import MetricRegistry
from repro.simnet.faults import NO_FAULTS, FaultSchedule
from repro.simnet.topology import ORIGIN_NODE, Topology
from repro.sketch.cache_sketch import ClientCacheSketch, ServerCacheSketch


@dataclass
class SketchFetchStats:
    """Bookkeeping for sketch-download overhead accounting."""

    fetches: int = 0
    failures: int = 0
    bytes_transferred: int = 0


class SketchClient:
    """Holds and refreshes one client's view of the server sketch."""

    def __init__(
        self,
        env: Environment,
        server_sketch: ServerCacheSketch,
        topology: Topology,
        client_node: str,
        rng: random.Random,
        refresh_interval: float = 60.0,
        faults: FaultSchedule = NO_FAULTS,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ) -> None:
        if refresh_interval <= 0:
            raise ValueError(
                f"refresh_interval must be positive: {refresh_interval}"
            )
        self.env = env
        self.server_sketch = server_sketch
        self.topology = topology
        self.client_node = client_node
        self.rng = rng
        self.refresh_interval = refresh_interval
        self.faults = faults
        self.metrics = metrics or MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.current: Optional[ClientCacheSketch] = None
        self.stats = SketchFetchStats()
        self._refresh_process = None

    def age(self, now: Optional[float] = None) -> Optional[float]:
        """Age of the held sketch (``None`` before the first fetch)."""
        if self.current is None:
            return None
        return self.current.age(now if now is not None else self.env.now)

    def is_usable(self, now: Optional[float] = None) -> bool:
        """Whether the held sketch still upholds the Δ bound.

        A sketch older than the refresh interval must not be trusted:
        the decision procedure falls back to revalidating everything.
        """
        age = self.age(now)
        return age is not None and age <= self.refresh_interval

    def usable_sketch(self) -> Optional[ClientCacheSketch]:
        """The sketch if trustworthy at the current instant, else None."""
        return self.current if self.is_usable() else None

    # -- fetching ------------------------------------------------------------

    def fetch_once(self, parent=None) -> Generator:
        """Download a fresh sketch (generator sub-process).

        Returns ``None`` (leaving the held sketch unchanged) when the
        sketch service is unreachable — the decision procedure then
        degrades gracefully instead of deadlocking on the download.
        """
        started = self.env.now
        span = self.tracer.start(
            "sketch-fetch",
            started,
            parent=parent,
            node=ORIGIN_NODE,
            tier="sketch",
        )
        yield self.env.timeout(
            self.topology.one_way(self.client_node, ORIGIN_NODE, self.rng)
        )
        if self.faults.is_down(ORIGIN_NODE, self.env.now):
            self.stats.failures += 1
            span.set(outcome="unreachable")
            self.tracer.finish(span, self.env.now)
            return None
        snapshot = self.server_sketch.snapshot(self.env.now)
        link = self.topology.link(self.client_node, ORIGIN_NODE)
        size = snapshot.transfer_size_bytes()
        yield self.env.timeout(
            link.one_way(self.rng) + link.transfer_time(size)
        )
        self.current = snapshot
        self.stats.fetches += 1
        self.stats.bytes_transferred += size
        # The run's totals, beside this client's own: every client of a
        # run counts into the one pair.
        self.metrics.counter("sketch.fetches").inc()
        self.metrics.counter("sketch.bytes").inc(size)
        span.set(outcome="fetched", bytes=size)
        self.tracer.finish(span, self.env.now)
        return snapshot

    def ensure_fresh(self, parent=None) -> Generator:
        """Fetch only if the held sketch is missing or too old."""
        if not self.is_usable():
            yield from self.fetch_once(parent=parent)
        return self.current

    def start_periodic_refresh(self) -> None:
        """Launch the background Δ-refresh loop (idempotent)."""
        if self._refresh_process is None:
            self._refresh_process = self.env.process(self._refresh_loop())

    def stop_periodic_refresh(self) -> None:
        if self._refresh_process is not None and (
            self._refresh_process.is_alive
        ):
            self._refresh_process.interrupt("stopped")
        self._refresh_process = None

    def _refresh_loop(self) -> Generator:
        from repro.sim.environment import Interrupt

        try:
            while True:
                yield from self.fetch_once()
                yield self.env.timeout(self.refresh_interval)
        except Interrupt:
            return
