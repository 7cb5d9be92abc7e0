"""Tests for the streaming query matcher."""

from repro.origin import Document, Eq, Query, QueryMatcher
from repro.origin.store import ChangeEvent


def doc(doc_id, data, version=1, collection="products"):
    return Document(
        collection=collection,
        doc_id=doc_id,
        data=data,
        version=version,
        updated_at=0.0,
    )


def change(before, after, collection="products", doc_id="p1"):
    return ChangeEvent(
        collection=collection,
        doc_id=doc_id,
        before=before,
        after=after,
        at=1.0,
    )


def shoes_query():
    return Query("products", Eq("category", "shoes"))


class TestSubscriptions:
    def test_subscribe_and_count(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        matcher.subscribe("r2", Query("products", Eq("category", "hats")))
        assert matcher.subscription_count() == 2

    def test_subscribe_is_idempotent(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        matcher.subscribe("r1", shoes_query())
        assert matcher.subscription_count() == 1


class TestMatching:
    def test_update_within_result_set_matches(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        event = change(
            doc("p1", {"category": "shoes", "price": 10}),
            doc("p1", {"category": "shoes", "price": 12}, version=2),
        )
        assert matcher.affected_resources(event) == {"r1"}

    def test_entering_result_set_matches(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        event = change(
            doc("p1", {"category": "hats"}),
            doc("p1", {"category": "shoes"}, version=2),
        )
        assert matcher.affected_resources(event) == {"r1"}

    def test_leaving_result_set_matches(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        event = change(
            doc("p1", {"category": "shoes"}),
            doc("p1", {"category": "hats"}, version=2),
        )
        assert matcher.affected_resources(event) == {"r1"}

    def test_unrelated_change_does_not_match(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        event = change(
            doc("p1", {"category": "hats"}),
            doc("p1", {"category": "hats", "price": 1}, version=2),
        )
        assert matcher.affected_resources(event) == set()

    def test_insert_and_delete(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        insert = change(None, doc("p1", {"category": "shoes"}))
        delete = change(doc("p1", {"category": "shoes"}), None)
        assert matcher.affected_resources(insert) == {"r1"}
        assert matcher.affected_resources(delete) == {"r1"}

    def test_collection_index_skips_other_collections(self):
        matcher = QueryMatcher()
        matcher.subscribe("r1", shoes_query())
        event = change(
            None,
            doc("u1", {"category": "shoes"}, collection="users"),
            collection="users",
            doc_id="u1",
        )
        assert matcher.affected_resources(event) == set()
        assert matcher.matches_evaluated == 0

    def test_multiple_subscriptions_can_match(self):
        matcher = QueryMatcher()
        matcher.subscribe("cheap", Query("products", Eq("price", 5)))
        matcher.subscribe("shoes", shoes_query())
        event = change(
            None, doc("p1", {"category": "shoes", "price": 5})
        )
        assert matcher.affected_resources(event) == {"cheap", "shoes"}
