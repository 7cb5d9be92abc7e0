"""Tests for the generic TTL/LRU cache store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdn import CacheStore
from repro.http import Headers, Response, Status, URL


def response(
    ttl=60, size=100, url="/r", version=1, cache_control=None, body="x"
):
    """A response is a value: a test says what it means up front
    (``size=None`` for no ``Content-Length`` at all)."""
    headers = {
        "Cache-Control": cache_control or f"public, max-age={ttl}",
        "ETag": f'"v{version}"',
    }
    if size is not None:
        headers["Content-Length"] = str(size)
    return Response(
        status=Status.OK,
        headers=Headers(headers),
        body=body,
        url=URL.parse(url),
        version=version,
        generated_at=0.0,
    )


class TestBasics:
    def test_put_get(self):
        store = CacheStore(shared=True)
        store.put("k", response(), now=0.0)
        entry = store.get("k", now=1.0)
        assert entry is not None
        assert entry.response.version == 1

    def test_get_missing(self):
        assert CacheStore(shared=True).get("ghost", now=0.0) is None

    def test_get_fresh_respects_ttl(self):
        store = CacheStore(shared=True)
        store.put("k", response(ttl=10), now=0.0)
        assert store.get_fresh("k", now=5.0) is not None
        assert store.get_fresh("k", now=10.0) is None
        # Entry is still *stored* (lazily expired).
        assert store.get("k", now=10.0) is not None

    def test_shared_store_uses_s_maxage(self):
        resp = response(cache_control="max-age=10, s-maxage=100")
        shared = CacheStore(shared=True)
        private = CacheStore(shared=False)
        shared.put("k", resp, now=0.0)
        private.put("k", resp, now=0.0)  # a value: two stores, one object
        assert shared.get_fresh("k", now=50.0) is not None
        assert private.get_fresh("k", now=50.0) is None

    def test_put_replaces(self):
        store = CacheStore(shared=True)
        store.put("k", response(version=1), now=0.0)
        store.put("k", response(version=2), now=1.0)
        assert len(store) == 1
        assert store.get("k", now=2.0).response.version == 2

    def test_remove(self):
        store = CacheStore(shared=True)
        store.put("k", response(), now=0.0)
        assert store.remove("k")
        assert not store.remove("k")
        assert len(store) == 0
        assert store.keys() == []

    def test_peek_does_not_touch_recency(self):
        store = CacheStore(shared=True, max_entries=2)
        store.put("old", response(), now=0.0)
        store.put("new", response(), now=0.0)
        store.peek("old")
        store.put("third", response(), now=1.0)
        # "old" was evicted despite the peek: peek is not a use.
        assert store.keys() == ["new", "third"]

    def test_size_accounting(self):
        store = CacheStore(shared=True)
        store.put("a", response(size=100), now=0.0)
        store.put("b", response(size=250), now=0.0)
        assert store.backend.bytes_used == 350
        store.remove("a")
        assert store.backend.bytes_used == 250


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        store = CacheStore(shared=True, max_entries=2)
        store.put("a", response(), now=0.0)
        store.put("b", response(), now=0.0)
        store.get("a", now=1.0)  # refresh a's recency
        store.put("c", response(), now=2.0)
        assert "a" in store
        assert "b" not in store
        assert store.evictions == 1

    def test_byte_capacity(self):
        store = CacheStore(shared=True, max_bytes=300)
        store.put("a", response(size=150), now=0.0)
        store.put("b", response(size=150), now=0.0)
        store.put("c", response(size=150), now=0.0)
        assert len(store) == 2
        assert store.backend.bytes_used <= 300
        assert "a" not in store

    def test_oversized_entry_is_kept_if_alone(self):
        store = CacheStore(shared=True, max_bytes=100)
        store.put("huge", response(size=500), now=0.0)
        assert "huge" in store

    def test_new_entry_is_protected_from_its_own_insert(self):
        store = CacheStore(shared=True, max_entries=2)
        store.put("a", response(), now=0.0)
        store.put("b", response(), now=0.0)
        store.put("fresh", response(), now=1.0)
        assert "fresh" in store

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CacheStore(shared=True, max_entries=0)
        with pytest.raises(ValueError):
            CacheStore(shared=True, max_bytes=-1)

    @given(
        sizes=st.lists(st.integers(1, 400), min_size=1, max_size=60),
        max_bytes=st.integers(200, 1000),
    )
    def test_byte_budget_never_exceeded_for_multi_entry(self, sizes, max_bytes):
        store = CacheStore(shared=True, max_bytes=max_bytes)
        for index, size in enumerate(sizes):
            store.put(f"k{index}", response(size=size), now=float(index))
            if len(store) > 1:
                assert store.backend.bytes_used <= max_bytes

    @given(keys=st.lists(st.sampled_from("abcdef"), max_size=80))
    def test_entry_count_invariant(self, keys):
        store = CacheStore(shared=True, max_entries=3)
        for index, key in enumerate(keys):
            store.put(key, response(), now=float(index))
            assert len(store) <= 3


class TestPayloadSize:
    def test_content_length_parsing_fallbacks(self):
        resp = response(size="not-a-number", body="12345")
        store = CacheStore(shared=True)
        entry = store.put("k", resp, now=0.0)
        assert entry.size_bytes == 5

    def test_no_length_no_body(self):
        resp = response(size=None, body=None)
        store = CacheStore(shared=True)
        assert store.put("k", resp, now=0.0).size_bytes == 0
