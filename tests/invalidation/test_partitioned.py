"""Tests for the partitioned (grid) query matcher."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.invalidation import PartitionedMatcher
from repro.origin import Document, Eq, Query, QueryMatcher
from repro.origin.store import ChangeEvent


def doc(doc_id, data):
    return Document(
        collection="products",
        doc_id=doc_id,
        data=data,
        version=1,
        updated_at=0.0,
    )


def change(doc_id, data):
    return ChangeEvent(
        collection="products",
        doc_id=doc_id,
        before=None,
        after=doc(doc_id, data),
        at=0.0,
    )


def populate(matcher, n_queries=30):
    for i in range(n_queries):
        matcher.subscribe(
            f"resource-{i}", Query("products", Eq("category", f"cat-{i % 10}"))
        )


class TestEquivalence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedMatcher(query_partitions=0)
        with pytest.raises(ValueError):
            PartitionedMatcher(object_partitions=-1)

    @given(
        q=st.integers(1, 6),
        o=st.integers(1, 6),
        events=st.lists(
            st.tuples(
                st.integers(0, 20),  # doc id
                st.integers(0, 12),  # category
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=40)
    def test_matches_exactly_like_flat_matcher(self, q, o, events):
        flat = QueryMatcher()
        grid = PartitionedMatcher(query_partitions=q, object_partitions=o)
        populate(flat)
        populate(grid)
        for doc_id, category in events:
            event = change(f"p{doc_id}", {"category": f"cat-{category}"})
            assert grid.affected_resources(event) == (
                flat.affected_resources(event)
            )


class TestScaling:
    def run_stream(self, grid, n_events=300):
        rng = random.Random(0)
        for i in range(n_events):
            grid.affected_resources(
                change(f"p{i}", {"category": f"cat-{rng.randrange(10)}"})
            )

    def test_query_partitioning_shrinks_per_node_work(self):
        small = PartitionedMatcher(query_partitions=1)
        large = PartitionedMatcher(query_partitions=8)
        for grid in (small, large):
            populate(grid, n_queries=64)
            self.run_stream(grid)
        # Same total matching work, spread over 8x the nodes.
        assert small.total_evaluations() == large.total_evaluations()
        assert large.max_node_evaluations() < (
            small.max_node_evaluations() / 4
        )

    def test_object_partitioning_shrinks_events_per_node(self):
        grid = PartitionedMatcher(query_partitions=1, object_partitions=4)
        populate(grid)
        self.run_stream(grid, n_events=400)
        events_per_node = [
            stats.events_seen for stats in grid.node_stats().values()
        ]
        assert sum(events_per_node) == 400
        assert max(events_per_node) < 200  # spread across 4 nodes

    def test_load_is_roughly_balanced(self):
        grid = PartitionedMatcher(query_partitions=4, object_partitions=4)
        populate(grid, n_queries=200)
        self.run_stream(grid, n_events=500)
        assert grid.load_imbalance() < 2.5

    def test_empty_grid_imbalance_is_one(self):
        grid = PartitionedMatcher(query_partitions=4)
        assert grid.load_imbalance() == 1.0
