"""Backend selection: the serializable spec threaded through configs.

A :class:`BackendSpec` is a plain, JSON-compatible record naming one
engine kind plus its parameters. It travels through
``SpeedKitConfig``, ``ScenarioSpec``, ``Cdn``, and the CLI
(``--backend``), and each cache tier calls :meth:`BackendSpec.build`
to materialize its own engine instance — every PoP / browser / worker
gets a fresh one (engines are stateful and never shared across tiers).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import asdict, dataclass, field, fields
from repro.simnet.delay import LogNormalDelay
from repro.storage.backend import CacheBackend, InMemoryBackend
from repro.storage.batched import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_PER_KEY_COST,
    DEFAULT_READ_MEDIAN,
    DEFAULT_SIGMA,
    DEFAULT_WRITE_MEDIAN,
    BatchedRemoteBackend,
)
from repro.storage.remote import SimulatedRemoteBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.writebehind import (
    DEFAULT_FLUSH_INTERVAL,
    WriteBehindBackend,
)

#: The engine registry, in CLI order.
BACKEND_KINDS = ("inmemory", "sharded", "remote", "batched", "write-behind")

_REMOTE = ("remote", "batched", "write-behind")
_PIPELINED = ("batched", "write-behind")


def _read_by(kinds, default):
    """A tuning field only the engines in ``kinds`` read: any other
    value than ``default`` on another kind is refused, not ignored."""
    return field(default=default, metadata={"read_by": kinds})


@dataclass(frozen=True)
class BackendSpec:
    """Which storage engine a cache tier uses, and how it is tuned."""

    kind: str = "inmemory"
    #: Sharded engine: partition count.
    n_shards: int = _read_by(("sharded",), 8)
    #: Remote/batched engines: per-operation latency medians (seconds)
    #: and the multiplicative spread of the log-normal draw.
    read_latency: float = _read_by(_REMOTE, DEFAULT_READ_MEDIAN)
    write_latency: float = _read_by(_REMOTE, DEFAULT_WRITE_MEDIAN)
    latency_sigma: float = _read_by(_REMOTE, DEFAULT_SIGMA)
    #: Batched engine: marginal cost per pipelined key, maximum keys
    #: per flushed batch, and whether drained latency may overlap with
    #: concurrent network transit instead of adding to it.
    per_key_cost: float = _read_by(_PIPELINED, DEFAULT_PER_KEY_COST)
    batch_window: int = _read_by(_PIPELINED, DEFAULT_BATCH_WINDOW)
    overlap: bool = _read_by(_PIPELINED, False)
    #: Write-behind engine: background flusher cadence in simulated
    #: seconds (queued mutations reach the remote store at most one
    #: interval plus the write round trips after their ack).
    flush_interval: float = _read_by(
        ("write-behind",), DEFAULT_FLUSH_INTERVAL
    )
    #: Root seed for the remote/batched engine's latency stream. Every
    #: tier is handed the run's seed whether or not its engine draws,
    #: so no kind refuses it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; "
                f"choose from {list(BACKEND_KINDS)}"
            )
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {self.n_shards}")
        for knob in ("read_latency", "write_latency"):
            value = getattr(self, knob)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{knob} must be finite and positive: {value}"
                )
        for knob in ("latency_sigma", "per_key_cost", "flush_interval"):
            value = getattr(self, knob)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{knob} must be finite and non-negative: {value}"
                )
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1: {self.batch_window}"
            )
        for knob in fields(self):
            read_by = knob.metadata.get("read_by", BACKEND_KINDS)
            if (
                self.kind not in read_by
                and getattr(self, knob.name) != knob.default
            ):
                raise ValueError(
                    f"{knob.name} is read only by the "
                    f"{'|'.join(read_by)} backend, not by {self.kind!r}"
                )

    def build(self, salt: str = "") -> CacheBackend:
        """A fresh engine instance.

        ``salt`` decorrelates the latency streams of sibling tiers
        (every PoP / worker passes its own name), keeping runs
        deterministic without every remote engine drawing the exact
        same latency sequence.
        """
        if self.kind == "inmemory":
            return InMemoryBackend()
        if self.kind == "sharded":
            return ShardedBackend(n_shards=self.n_shards)
        rng = random.Random(
            self.seed ^ zlib.crc32(salt.encode("utf-8"))
        )
        read_delay = LogNormalDelay(
            median=self.read_latency, sigma=self.latency_sigma
        )
        write_delay = LogNormalDelay(
            median=self.write_latency, sigma=self.latency_sigma
        )
        if self.kind == "batched":
            return BatchedRemoteBackend(
                read_delay=read_delay,
                write_delay=write_delay,
                per_key_cost=self.per_key_cost,
                batch_window=self.batch_window,
                overlap=self.overlap,
                rng=rng,
            )
        if self.kind == "write-behind":
            return WriteBehindBackend(
                read_delay=read_delay,
                write_delay=write_delay,
                flush_interval=self.flush_interval,
                per_key_cost=self.per_key_cost,
                batch_window=self.batch_window,
                overlap=self.overlap,
                rng=rng,
            )
        return SimulatedRemoteBackend(
            read_delay=read_delay,
            write_delay=write_delay,
            rng=rng,
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)
