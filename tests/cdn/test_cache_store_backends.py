"""CacheStore policy behaviour over every pluggable storage engine."""

import random
from collections import OrderedDict

import pytest

from repro.cdn import CacheStore
from repro.http import Headers, Response, Status, URL
from repro.simnet.delay import ConstantDelay
from repro.storage import (
    BatchedRemoteBackend,
    InMemoryBackend,
    ShardedBackend,
    SimulatedRemoteBackend,
    WriteBehindBackend,
)

ENGINE_FACTORIES = {
    "inmemory": InMemoryBackend,
    "sharded": lambda: ShardedBackend(n_shards=4),
    "remote": lambda: SimulatedRemoteBackend(rng=random.Random(5)),
    "batched": lambda: BatchedRemoteBackend(rng=random.Random(5)),
    "write-behind": lambda: WriteBehindBackend(rng=random.Random(5)),
}


def response(ttl=60, size=100, version=1):
    return Response(
        status=Status.OK,
        headers=Headers(
            {
                "Cache-Control": f"public, max-age={ttl}",
                "Content-Length": str(size),
                "ETag": f'"v{version}"',
            }
        ),
        body="x",
        url=URL.parse("/r"),
        version=version,
        generated_at=0.0,
    )


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def store(request):
    return CacheStore(shared=True, backend=ENGINE_FACTORIES[request.param]())


class TestPolicyOverEngines:
    def test_roundtrip(self, store):
        store.put("k", response(), now=0.0)
        assert store.get_fresh("k", now=1.0).response.version == 1
        assert len(store) == 1
        assert store.backend.bytes_used == 100

    def test_remove_many_spans_shards(self, store):
        # Satellite: hash routing scatters a shared prefix across all
        # partitions; the purge must still reach every one of them.
        for i in range(40):
            store.put(f"pages/p{i}", response(), now=0.0)
        for i in range(10):
            store.put(f"api/a{i}", response(), now=0.0)
        assert store.remove_many([f"pages/p{i}" for i in range(40)]) == 40
        assert len(store) == 10
        assert all(key.startswith("api/") for key in store.keys())
        assert store.backend.bytes_used == 10 * 100

    def test_stale_get_fresh_is_a_pure_miss(self, store):
        # A stale lookup must not make the entry look recently used.
        store.put("k", response(ttl=10), now=0.0)
        store.put("other", response(ttl=1000), now=0.0)
        assert store.get_fresh("k", now=20.0) is None
        assert store.get_fresh_many(["k"], now=20.0) == {}
        assert store.keys() == ["k", "other"]
        # ... while a fresh one does.
        assert store.get_fresh("k", now=5.0) is not None
        assert store.keys() == ["other", "k"]

    def test_utf8_payload_sizing(self, store):
        # Satellite: str bodies are sized by UTF-8 bytes, not chars.
        resp = Response(
            status=Status.OK,
            headers=Headers({"Cache-Control": "public, max-age=60"}),
            body="ü" * 10,  # 10 chars, 20 UTF-8 bytes
            url=URL.parse("/r"),
            version=1,
        )
        store.put("k", resp, now=0.0)
        assert store.peek("k").size_bytes == 20
        assert store.backend.bytes_used == 20

    def test_remove_reports_whether_the_entry_existed(self, store):
        store.put("k", response(), now=0.0)
        assert store.remove("k")
        assert not store.remove("k")
        assert "k" not in store and len(store) == 0
        assert store.backend.bytes_used == 0

    def test_remove_many_counts_only_stored_keys(self, store):
        store.put("a", response(), now=0.0)
        store.put("b", response(), now=0.0)
        assert store.remove_many([]) == 0
        assert store.remove_many(["a", "ghost"]) == 1
        assert store.keys() == ["b"]
        assert store.backend.bytes_used == 100

    def test_erase_matching_keeps_the_recency_order(self, store):
        for key in ("u1/cart", "page/1", "u1/profile", "page/2"):
            store.put(key, response(), now=0.0)
        erased = store.erase_matching(lambda key, _: key.startswith("u1/"))
        assert sorted(erased) == ["u1/cart", "u1/profile"]
        assert store.keys() == ["page/1", "page/2"]
        assert len(store) == 2 and store.backend.bytes_used == 200
        assert store.erase_matching(lambda key, _: True) == [
            "page/1",
            "page/2",
        ]

    def test_replacing_an_entry_accounts_its_new_size(self, store):
        store.put("k", response(size=100), now=0.0)
        store.put("k", response(size=300, version=2), now=1.0)
        assert len(store) == 1
        assert store.backend.bytes_used == 300
        assert store.get_fresh("k", now=2.0).response.version == 2


class TestCombinedCapacity:
    """Satellite: eviction under max_entries AND max_bytes together."""

    @pytest.fixture(params=sorted(ENGINE_FACTORIES))
    def bounded(self, request):
        return CacheStore(
            shared=True,
            max_entries=5,
            max_bytes=350,
            backend=ENGINE_FACTORIES[request.param](),
        )

    def test_entry_cap_binds_first(self, bounded):
        for i in range(8):
            bounded.put(f"k{i}", response(size=10), now=float(i))
        assert len(bounded) == 5
        assert bounded.backend.bytes_used == 50
        assert bounded.evictions == 3

    def test_byte_cap_binds_first(self, bounded):
        for i in range(5):
            bounded.put(f"k{i}", response(size=100), now=float(i))
        # 5 entries fit the entry cap but 500 bytes bust the byte cap.
        assert bounded.backend.bytes_used <= 350
        assert len(bounded) == 3
        assert bounded.evictions == 2

    def test_both_invariants_hold_under_churn(self, bounded):
        rng = random.Random(11)
        for i in range(200):
            size = rng.choice([10, 80, 150])
            bounded.put(f"k{rng.randrange(30)}", response(size=size), now=float(i))
            if rng.random() < 0.3:
                bounded.get_fresh(f"k{rng.randrange(30)}", now=float(i))
        assert len(bounded) <= 5
        assert bounded.backend.bytes_used <= 350
        # Policy bookkeeping and engine contents agree exactly.
        assert sorted(bounded.keys()) == sorted(bounded.backend.keys())
        assert bounded.backend.bytes_used == sum(
            entry.size_bytes for entry in bounded
        )

    def test_oversized_entry_kept(self, bounded):
        bounded.put("big", response(size=1000), now=0.0)
        assert bounded.peek("big") is not None
        assert len(bounded) == 1


class TestLruOverEngines:
    @pytest.fixture(params=sorted(ENGINE_FACTORIES))
    def lru(self, request):
        return CacheStore(
            shared=True,
            max_entries=3,
            backend=ENGINE_FACTORIES[request.param](),
        )

    def test_least_recently_served_entry_goes(self, lru):
        lru.put("first", response(), now=0.0)
        lru.put("second", response(), now=1.0)
        lru.put("third", response(), now=2.0)
        lru.get_fresh("first", now=3.0)
        lru.get("second", now=3.0)
        lru.get_fresh_many(["first"], now=3.0)
        lru.put("new", response(), now=4.0)
        assert lru.keys() == ["second", "first", "new"]
        assert lru.evictions == 1

    def test_unserved_entries_go_oldest_first(self, lru):
        for i, key in enumerate(["first", "second", "third", "new", "newer"]):
            lru.put(key, response(), now=float(i))
        assert lru.keys() == ["third", "new", "newer"]

    def test_replacing_an_entry_renews_it_and_evicts_nothing(self, lru):
        for i, key in enumerate(["first", "second", "third", "first"]):
            lru.put(key, response(version=i), now=float(i))
        assert lru.keys() == ["second", "third", "first"]
        assert lru.peek("first").response.version == 3
        assert lru.evictions == 0

    def test_order_is_exact_lru_through_key_churn(self, lru):
        # The reference: an OrderedDict that moves a key to the end on
        # every store and every serve, and drops from the front.
        model = OrderedDict()
        rng = random.Random(3)
        for i in range(400):
            key = f"k{rng.randrange(8)}"
            action = rng.random()
            if action < 0.45:
                lru.put(key, response(ttl=10_000), now=float(i))
                model[key] = None
                model.move_to_end(key)
                while len(model) > 3:
                    model.popitem(last=False)
            elif action < 0.75:
                served = lru.get_fresh(key, now=float(i)) is not None
                assert served == (key in model)
                if served:
                    model.move_to_end(key)
            elif action < 0.9:
                assert lru.remove(key) == (key in model)
                model.pop(key, None)
            else:
                lru.backend.drain_latency()
            assert lru.keys() == list(model)
        assert sorted(lru.backend.keys()) == sorted(model)


class TestRemoteCostSurface:
    def test_drain_latency_proxies_backend(self):
        backend = SimulatedRemoteBackend(
            read_delay=ConstantDelay(0.001),
            write_delay=ConstantDelay(0.002),
        )
        store = CacheStore(shared=True, backend=backend)
        store.put("k", response(), now=0.0)
        store.get_fresh("k", now=1.0)
        assert store.drain_latency() == pytest.approx(0.003)
        assert store.drain_latency() == 0.0

    def test_local_store_is_free(self):
        store = CacheStore(shared=True)
        store.put("k", response(), now=0.0)
        assert store.drain_latency() == 0.0
