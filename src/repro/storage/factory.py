"""Backend selection: the serializable spec threaded through configs.

A :class:`BackendSpec` is a plain, JSON-compatible record naming one
engine kind plus its parameters. It travels through
``SpeedKitConfig``, ``ScenarioSpec``, ``Cdn``, and the CLI
(``--backend``), and each cache tier calls :meth:`BackendSpec.build`
to materialize its own engine instance — every PoP / browser / worker
gets a fresh one (engines are stateful and never shared across tiers).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, fields

from repro.knobs import NON_NEGATIVE, POSITIVE, choices, integer, knob, knobs
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

#: The engines that read a tuning knob (its ``read_by``): another value
#: than its default, on another kind, is refused, not ignored.
_REMOTE = ("remote", "batched", "write-behind")
_PIPELINED = ("batched", "write-behind")


@dataclass(frozen=True)
@knobs
class BackendSpec:
    """Which storage engine a cache tier uses, and how it is tuned."""

    kind: str = knob(
        "inmemory",
        choices(*BACKEND_KINDS),
        help="storage engine for every cache tier and the origin store (default: "
        "the classic in-memory engine)",
        flag="--backend",
    )
    n_shards: int = knob(
        8,
        integer(1),
        help="shard count for --backend sharded (default 8)",
        flag="--backend-shards",
        read_by=("sharded",),
    )
    #: Remote/batched engines: per-operation latency medians (seconds)
    #: and the multiplicative spread of the log-normal draw.
    read_latency: float = knob(DEFAULT_READ_MEDIAN, POSITIVE, read_by=_REMOTE)
    write_latency: float = knob(DEFAULT_WRITE_MEDIAN, POSITIVE, read_by=_REMOTE)
    latency_sigma: float = knob(DEFAULT_SIGMA, NON_NEGATIVE, read_by=_REMOTE)
    #: Batched engine: marginal cost per pipelined key.
    per_key_cost: float = knob(DEFAULT_PER_KEY_COST, NON_NEGATIVE, read_by=_PIPELINED)
    batch_window: int = knob(
        DEFAULT_BATCH_WINDOW,
        integer(1),
        help="max keys coalesced per round trip for --backend batched",
        read_by=_PIPELINED,
    )
    overlap: bool = knob(
        False,
        help="pipeline batched-storage latency under network transit (--backend "
        "batched or write-behind)",
        read_by=_PIPELINED,
    )
    # Queued mutations reach the remote store at most one interval plus
    # the write round trips after their ack.
    flush_interval: float = knob(
        DEFAULT_FLUSH_INTERVAL,
        NON_NEGATIVE,
        help="background flush interval (simulated seconds) for the write-behind "
        "engine; widens the checked Δ bound",
        read_by=("write-behind",),
    )
    #: Root seed for the remote/batched engine's latency stream. Every
    #: tier is handed the run's seed whether or not its engine draws,
    #: so no kind refuses it.
    seed: int = knob(0, integer(0))

    def __post_init__(self) -> None:
        for knob_field in fields(self):
            read_by = knob_field.metadata.get("read_by", BACKEND_KINDS)
            if (
                self.kind not in read_by
                and getattr(self, knob_field.name) != knob_field.default
            ):
                raise ValueError(
                    f"{knob_field.name} is read only by the "
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
