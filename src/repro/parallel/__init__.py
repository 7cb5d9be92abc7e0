"""Sharded parallel simulation: partition users, merge results exactly."""

from repro.parallel.partition import (
    assign_users,
    partition_users,
    shard_trace,
)
from repro.parallel.runner import ShardedSimulationRunner, default_workers
from repro.parallel.worker import ShardTask, run_shard

__all__ = [
    "ShardTask",
    "ShardedSimulationRunner",
    "assign_users",
    "default_workers",
    "partition_users",
    "run_shard",
    "shard_trace",
]
