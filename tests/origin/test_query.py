"""Tests for document queries and their equality predicate."""

from repro.origin import Eq, Query

DOC = {
    "name": "sneaker",
    "price": 79.99,
    "category": "shoes",
    "tags": ["sale", "new"],
    "stock": {"warehouse": 12},
}


class TestPredicates:
    def test_eq(self):
        assert Eq("category", "shoes").matches(DOC)
        assert not Eq("category", "hats").matches(DOC)

    def test_eq_missing_field_matches_none(self):
        assert Eq("missing", None).matches(DOC)
        assert not Eq("missing", "x").matches(DOC)

    def test_dotted_path(self):
        assert Eq("stock.warehouse", 12).matches(DOC)
        assert not Eq("stock.shop", 1).matches(DOC)

    def test_dotted_path_through_non_mapping(self):
        assert not Eq("price.cents", 99).matches(DOC)

    def test_keys_are_stable_and_distinct(self):
        a = Eq("category", "shoes")
        b = Eq("category", "hats")
        assert a.key() == Eq("category", "shoes").key()
        assert a.key() != b.key()


class TestQuery:
    def test_collection_must_match(self):
        q = Query("products", Eq("category", "shoes"))
        assert q.matches("products", DOC)
        assert not q.matches("users", DOC)

    def test_no_predicate_matches_everything_in_collection(self):
        q = Query("products")
        assert q.matches("products", {})

    def test_key_includes_ordering_and_limit(self):
        plain = Query("products", Eq("category", "shoes"))
        ordered = Query(
            "products",
            Eq("category", "shoes"),
            order_by="price",
            descending=True,
            limit=10,
        )
        assert plain.key() != ordered.key()
        assert "limit:10" in ordered.key()
