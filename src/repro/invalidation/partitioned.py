"""Partitioned query matching: InvaliDB's two-dimensional workload grid.

The production InvaliDB distributes matching across a grid: the
subscription set is partitioned one way ("query partitions") and the
object update stream the other way ("object partitions"); every grid
node owns one (query-partition × object-partition) cell and matches
only its slice. An update is broadcast to the nodes of its object
partition (one per query partition), so matching work per node shrinks
linearly with the query-partition count while any node sees only
``1/object_partitions`` of the stream.

This module models that scheme in-process to study load balance and
scaling (experiment E14): matching results are exactly those of the
flat :class:`~repro.origin.matcher.QueryMatcher` the origin matches
every change with, but work is accounted per node. It models the
matcher's distribution, and is not on the request path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.origin.matcher import QueryMatcher
from repro.origin.query import Query
from repro.origin.store import ChangeEvent


def _stable_bucket(text: str, buckets: int) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


@dataclass
class NodeStats:
    """Work accounting for one grid node."""

    subscriptions: int = 0
    events_seen: int = 0
    matches_evaluated: int = 0
    matches_found: int = 0


class PartitionedMatcher:
    """A query-grid of flat matchers with per-node accounting."""

    def __init__(
        self, query_partitions: int = 1, object_partitions: int = 1
    ) -> None:
        if query_partitions <= 0 or object_partitions <= 0:
            raise ValueError(
                "partition counts must be positive, got "
                f"{query_partitions}x{object_partitions}"
            )
        self.query_partitions = query_partitions
        self.object_partitions = object_partitions
        # cell (q, o) -> matcher holding that query slice. Matchers are
        # per query partition; all object partitions of one query
        # partition share the subscription slice, so we keep one
        # matcher per query partition and track node stats per cell.
        self._matchers: List[QueryMatcher] = [
            QueryMatcher() for _ in range(query_partitions)
        ]
        self._stats: Dict[Tuple[int, int], NodeStats] = {
            (q, o): NodeStats()
            for q in range(query_partitions)
            for o in range(object_partitions)
        }

    # -- subscription management -------------------------------------------

    def _query_partition_of(self, resource_key: str) -> int:
        return _stable_bucket(resource_key, self.query_partitions)

    def _object_partition_of(self, event: ChangeEvent) -> int:
        return _stable_bucket(event.key, self.object_partitions)

    def subscribe(self, resource_key: str, query: Query) -> None:
        partition = self._query_partition_of(resource_key)
        self._matchers[partition].subscribe(resource_key, query)
        for o in range(self.object_partitions):
            self._stats[(partition, o)].subscriptions = self._matchers[
                partition
            ].subscription_count()

    # -- matching ----------------------------------------------------------

    def affected_resources(self, event: ChangeEvent) -> Set[str]:
        """Exactly the flat matcher's result, with per-node accounting.

        The event goes to one node per query partition (its object
        partition's row of the grid); results are unioned.
        """
        object_partition = self._object_partition_of(event)
        affected: Set[str] = set()
        for query_partition, matcher in enumerate(self._matchers):
            stats = self._stats[(query_partition, object_partition)]
            before = matcher.matches_evaluated
            found = matcher.affected_resources(event)
            stats.events_seen += 1
            stats.matches_evaluated += matcher.matches_evaluated - before
            stats.matches_found += len(found)
            affected |= found
        return affected

    # -- accounting ----------------------------------------------------------

    def node_stats(self) -> Dict[Tuple[int, int], NodeStats]:
        return dict(self._stats)

    def max_node_evaluations(self) -> int:
        """Peak matching work on any single node (the scaling metric)."""
        return max(
            stats.matches_evaluated for stats in self._stats.values()
        )

    def total_evaluations(self) -> int:
        return sum(
            stats.matches_evaluated for stats in self._stats.values()
        )

    def load_imbalance(self) -> float:
        """max/mean of per-node evaluations (1.0 = perfectly balanced)."""
        loads = [stats.matches_evaluated for stats in self._stats.values()]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean
