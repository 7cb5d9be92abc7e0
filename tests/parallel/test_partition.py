"""Partitioning: balanced, deterministic, and loss-free."""

import dataclasses

import pytest

from repro.parallel import assign_users, partition_users, shard_trace
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TxnRead,
    UserEvent,
    WorkloadTrace,
)


def test_assignment_is_balanced_and_total():
    ids = [f"u{i}" for i in range(25)]
    shards = partition_users(ids, 4)
    assert sorted(uid for shard in shards for uid in shard) == sorted(ids)
    sizes = [len(shard) for shard in shards]
    assert max(sizes) - min(sizes) <= 1


def test_assignment_is_deterministic_and_order_free():
    ids = [f"u{i}" for i in range(17)]
    assert assign_users(ids, 3) == assign_users(list(reversed(ids)), 3)


def test_one_shard_owns_everyone():
    ids = ["u3", "u1", "u2"]
    assert partition_users(ids, 1) == [sorted(ids)]


def test_rejects_nonpositive_shards():
    with pytest.raises(ValueError):
        assign_users(["u1"], 0)


def test_shard_trace_keeps_all_product_updates(workload):
    _, _, trace = workload
    updates = [
        event for event in trace.events
        if isinstance(event, ProductUpdate)
    ]
    assert updates, "workload must exercise the write stream"
    shards = partition_users(sorted(trace.users_seen()), 4)
    for owned in shards:
        sliced = shard_trace(trace, owned)
        kept_updates = [
            event for event in sliced.events
            if isinstance(event, ProductUpdate)
        ]
        assert kept_updates == updates
        assert sliced.duration == trace.duration


def test_shard_traces_partition_user_events(workload):
    _, _, trace = workload
    shards = partition_users(sorted(trace.users_seen()), 3)
    per_shard = [shard_trace(trace, owned) for owned in shards]
    # Every user event lands on exactly one shard...
    user_events = [
        event for event in trace.events
        if isinstance(event, (PageView, CartAdd))
    ]
    scattered = [
        event
        for sliced in per_shard
        for event in sliced.events
        if isinstance(event, (PageView, CartAdd))
    ]
    assert len(scattered) == len(user_events)
    # ... and only events of users that shard owns.
    for owned, sliced in zip(shards, per_shard):
        members = set(owned)
        for event in sliced.events:
            if isinstance(event, (PageView, CartAdd)):
                assert event.user_id in members


def test_shard_trace_preserves_event_order(workload):
    _, _, trace = workload
    (owned,) = partition_users(sorted(trace.users_seen()), 1)
    sliced = shard_trace(trace, owned)
    assert sliced.events == list(trace.events)


def test_shard_trace_carries_the_world(workload):
    from repro.workload import CatalogConfig, UserPopulationConfig, WorldSpec

    _, _, trace = workload
    trace.world = WorldSpec(
        catalog=CatalogConfig(n_products=20),
        users=UserPopulationConfig(n_users=10),
        seed=5,
    )
    try:
        for owned in partition_users(sorted(trace.users_seen()), 3):
            sliced = shard_trace(trace, owned)
            assert sliced.world is trace.world
            assert sliced.duration == trace.duration
    finally:
        trace.world = None  # module-scoped fixture: leave it clean


def test_a_new_user_event_kind_is_routed_without_being_listed():
    """``user_id`` is the routing contract: a kind of user event that
    neither ``users_seen`` nor ``shard_trace`` has heard of is seen by
    the one and kept by exactly one shard of the other."""

    @dataclasses.dataclass(frozen=True)
    class WishlistAdd(UserEvent):
        product_id: str = ""

    trace = WorkloadTrace(
        events=[
            PageView(at=1.0, user_id="u1", page_kind="home"),
            WishlistAdd(at=2.0, user_id="u9", product_id="p1"),
            ProductUpdate(at=3.0, product_id="p1"),
        ],
        duration=10.0,
    )
    assert trace.users_seen() == ["u1", "u9"]
    shards = partition_users(trace.users_seen(), 2)
    keepers = [
        owned
        for owned in shards
        if any(
            isinstance(event, WishlistAdd)
            for event in shard_trace(trace, owned).events
        )
    ]
    assert keepers == [["u9"]]


def test_user_events_kept_their_field_order():
    """``user_id`` moved to a base class, not to another position: the
    positional constructor, the wire format and pickles depend on it."""

    def names(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert names(PageView) == ["at", "user_id", "page_kind", "target"]
    assert names(CartAdd) == ["at", "user_id", "product_id"]
    assert names(TxnRead) == ["at", "user_id", "product_ids"]
    assert names(EraseUser) == names(AccessUser) == ["at", "user_id"]
    assert names(ProductUpdate) == ["at", "product_id", "changes"]
