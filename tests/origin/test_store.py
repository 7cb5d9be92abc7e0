"""Tests for the versioned document store."""

import pytest

from repro.origin import DocumentStore, Eq, Query, VersionConflict


@pytest.fixture
def store():
    return DocumentStore()


class TestPutGet:
    def test_insert_starts_at_version_1(self, store):
        doc = store.put("products", "p1", {"price": 10}, at=5.0)
        assert doc.version == 1
        assert doc.updated_at == 5.0
        assert doc.key == "products/p1"

    def test_versions_increment_per_document(self, store):
        store.put("products", "p1", {"price": 10})
        second = store.put("products", "p1", {"price": 12})
        other = store.put("products", "p2", {"price": 5})
        assert second.version == 2
        assert other.version == 1

    def test_get_missing_returns_none(self, store):
        assert store.get("products", "ghost") is None

    def test_snapshots_are_isolated_from_store(self, store):
        store.put("products", "p1", {"tags": ["a"]})
        snapshot = store.get("products", "p1")
        snapshot.data["tags"].append("b")
        assert store.get("products", "p1").data["tags"] == ["a"]

    def test_input_data_is_copied(self, store):
        data = {"tags": ["a"]}
        store.put("products", "p1", data)
        data["tags"].append("b")
        assert store.get("products", "p1").data["tags"] == ["a"]

    def test_update_merges(self, store):
        store.put("products", "p1", {"price": 10, "name": "x"})
        doc = store.update("products", "p1", {"price": 12}, at=3.0)
        assert doc.data == {"price": 12, "name": "x"}
        assert doc.version == 2

    def test_update_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.update("products", "ghost", {"a": 1})

    def test_delete(self, store):
        store.put("products", "p1", {"price": 10})
        store.delete("products", "p1")
        assert store.get("products", "p1") is None

    def test_delete_missing_is_noop(self, store):
        store.delete("products", "ghost")  # must not raise


class TestOptimisticConcurrency:
    def test_matching_version_succeeds(self, store):
        store.put("products", "p1", {"price": 10})
        doc = store.put_if_version(
            "products", "p1", {"price": 12}, expected_version=1
        )
        assert doc.version == 2

    def test_stale_version_conflicts(self, store):
        store.put("products", "p1", {"price": 10})
        store.put("products", "p1", {"price": 11})  # now v2
        with pytest.raises(VersionConflict) as exc_info:
            store.put_if_version(
                "products", "p1", {"price": 12}, expected_version=1
            )
        assert exc_info.value.expected == 1
        assert exc_info.value.actual == 2
        # The document is untouched by the failed write.
        assert store.get("products", "p1").data == {"price": 11}

    def test_insert_only_with_version_zero(self, store):
        doc = store.put_if_version(
            "products", "fresh", {"price": 1}, expected_version=0
        )
        assert doc.version == 1
        with pytest.raises(VersionConflict):
            store.put_if_version(
                "products", "fresh", {"price": 2}, expected_version=0
            )

    def test_conflict_emits_no_change_event(self, store):
        store.put("products", "p1", {"price": 10})
        events = []
        store.subscribe(events.append)
        with pytest.raises(VersionConflict):
            store.put_if_version(
                "products", "p1", {"price": 99}, expected_version=7
            )
        assert events == []

    def test_read_modify_write_retry_loop(self, store):
        """The canonical client pattern against the CAS API."""
        store.put("counters", "c", {"value": 0})

        def increment():
            while True:
                current = store.get("counters", "c")
                try:
                    return store.put_if_version(
                        "counters",
                        "c",
                        {"value": current.data["value"] + 1},
                        expected_version=current.version,
                    )
                except VersionConflict:
                    continue

        # Simulate interleaving: a competing write lands between the
        # read and the CAS on the first try.
        current = store.get("counters", "c")
        store.put("counters", "c", {"value": 100})  # competitor
        with pytest.raises(VersionConflict):
            store.put_if_version(
                "counters",
                "c",
                {"value": current.data["value"] + 1},
                expected_version=current.version,
            )
        doc = increment()  # the retry loop succeeds
        assert doc.data["value"] == 101


class TestChangeEvents:
    def test_insert_event(self, store):
        events = []
        store.subscribe(events.append)
        store.put("products", "p1", {"price": 10}, at=2.0)
        (event,) = events
        assert event.before is None
        assert event.after.version == 1
        assert event.at == 2.0

    def test_update_event_has_before_and_after(self, store):
        events = []
        store.put("products", "p1", {"price": 10})
        store.subscribe(events.append)
        store.put("products", "p1", {"price": 12}, at=4.0)
        (event,) = events
        assert event.before.data == {"price": 10}
        assert event.after.data == {"price": 12}

    def test_delete_event(self, store):
        events = []
        store.put("products", "p1", {"price": 10})
        store.subscribe(events.append)
        store.delete("products", "p1", at=9.0)
        (event,) = events
        assert event.after is None
        assert event.before.data == {"price": 10}

    def test_delete_missing_emits_nothing(self, store):
        events = []
        store.subscribe(events.append)
        store.delete("products", "ghost")
        assert events == []

    def test_multiple_listeners_all_called(self, store):
        a, b = [], []
        store.subscribe(a.append)
        store.subscribe(b.append)
        store.put("products", "p1", {})
        assert len(a) == len(b) == 1


def select(store, query):
    return store.select(query, store.scan_stored(query.collection))


class TestSelect:
    def test_filter(self, store):
        store.put("products", "p1", {"category": "shoes", "price": 10})
        store.put("products", "p2", {"category": "hats", "price": 5})
        store.put("products", "p3", {"category": "shoes", "price": 99})
        results = select(store, Query("products", Eq("category", "shoes")))
        assert [doc.doc_id for doc in results] == ["p1", "p3"]

    def test_order_and_limit(self, store):
        for i, price in enumerate([30, 10, 20]):
            store.put("products", f"p{i}", {"price": price})
        query = Query("products", order_by="price", descending=True, limit=2)
        results = select(store, query)
        assert [doc.data["price"] for doc in results] == [30, 20]

    def test_order_with_missing_field_sorts_last(self, store):
        store.put("products", "a", {"price": 10})
        store.put("products", "b", {})
        results = select(store, Query("products", order_by="price"))
        assert [doc.doc_id for doc in results] == ["a", "b"]

    def test_empty_collection(self, store):
        assert select(store, Query("nothing")) == []


class TestStoredView:
    """The uncopied reads behind ``get`` (origin renderer)."""

    def test_stored_hands_back_the_stored_document_itself(self, store):
        written = store.put("products", "p1", {"tags": ["a"]})
        assert store.stored("products/p1") is written
        assert store.stored("products/ghost") is None
        # ... while the public read still copies.
        snapshot = store.get("products", "p1")
        assert snapshot == written and snapshot is not written
        assert snapshot.data["tags"] is not written.data["tags"]

    def test_select_hands_back_the_stored_documents(self, store):
        store.put("products", "p1", {"category": "shoes", "tags": ["a"]})
        store.put("products", "p2", {"category": "hats", "tags": ["b"]})
        query = Query("products", Eq("category", "shoes"))
        (selected,) = store.select(query, store.scan_stored("products"))
        assert selected is store.stored("products/p1")
