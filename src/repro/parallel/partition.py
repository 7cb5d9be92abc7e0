"""Partitioning the workload for sharded simulation.

A shard owns a subset of the *user population*: every event a user
originates (page views, cart adds) replays on exactly one shard, while
background product updates — the origin's write stream — replay on
*every* shard, so each shard's origin sees the complete version
history and the Δ-atomicity checker judges reads against the same
ground truth the serial run uses.

Assignment is round-robin over the trace's user list in sorted order:
deterministic for a given trace, balanced to within one user per
shard (hash routing would be stable under population changes, but
balance is what buys wall-clock speedup, and a replayed trace pins
the population anyway).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.workload.trace import UserEvent, WorkloadTrace

__all__ = ["assign_users", "partition_users", "shard_trace"]


def assign_users(user_ids: Sequence[str], n_shards: int) -> Dict[str, int]:
    """Map each user id to its owning shard (round-robin, sorted ids)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1: {n_shards}")
    return {
        user_id: index % n_shards
        for index, user_id in enumerate(sorted(user_ids))
    }


def partition_users(
    user_ids: Sequence[str], n_shards: int
) -> List[List[str]]:
    """The shard membership lists implied by :func:`assign_users`."""
    members: List[List[str]] = [[] for _ in range(n_shards)]
    for user_id, index in assign_users(user_ids, n_shards).items():
        members[index].append(user_id)
    for shard in members:
        shard.sort()
    return members


def shard_trace(
    trace: WorkloadTrace, owned: Sequence[str]
) -> WorkloadTrace:
    """The slice of ``trace`` one shard replays.

    User-originated events (every
    :class:`~repro.workload.trace.UserEvent`: page views, cart adds,
    transactions, and the user's own GDPR erase/access requests) are
    kept iff the user is in ``owned`` (a user's bytes only ever live
    on the shard that replays their traffic, so their erasure walks
    that same shard); every
    :class:`~repro.workload.trace.ProductUpdate` is kept so the
    shard's origin applies the full write stream. Event order (and
    therefore each event's timestamp) is preserved, so a shard's
    kernel replays a strictly time-ordered sub-trace.

    The routing contract is purely ``user_id``-based, so imported
    traces (whose users were mapped from foreign client ids by
    :mod:`repro.workload.ingest`) shard exactly like generated ones;
    the trace's attached world rides along on every slice so a shard
    is as self-describing as the whole.
    """
    members = set(owned)
    events = [
        event
        for event in trace.events
        if not isinstance(event, UserEvent) or event.user_id in members
    ]
    return WorkloadTrace(
        events=events, duration=trace.duration, world=trace.world
    )
