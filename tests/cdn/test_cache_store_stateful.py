"""Model-based stateful testing of the cache store.

Hypothesis drives arbitrary operation sequences against a
:class:`CacheStore` and a trivially-correct dictionary model, checking
after every step that the store agrees with the model on membership,
freshness, and capacity invariants.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.cdn import CacheStore
from repro.http import Headers, Response, Status, URL

MAX_ENTRIES = 5
KEYS = [f"key-{i}" for i in range(8)]


def make_response(ttl, size, version):
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
        url=URL.of("/r"),
        version=version,
        generated_at=0.0,
    )


class CacheStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = CacheStore(shared=True, max_entries=MAX_ENTRIES)
        # model: key -> (generated_at, ttl, version)
        self.model = {}
        self.now = 0.0
        self.version = 0

    @rule(
        key=st.sampled_from(KEYS),
        ttl=st.floats(1.0, 100.0),
        size=st.integers(1, 1000),
    )
    def put(self, key, ttl, size):
        self.version += 1
        response = make_response(ttl, size, self.version)
        response.generated_at = self.now
        self.store.put(key, response, self.now)
        self.model[key] = (self.now, ttl, self.version)

    @rule(key=st.sampled_from(KEYS))
    def get_fresh(self, key):
        entry = self.store.get_fresh(key, self.now)
        if entry is not None:
            # Anything the store serves fresh must be in the model and
            # genuinely fresh — never a phantom or expired entry.
            assert key in self.model
            generated_at, ttl, version = self.model[key]
            assert entry.response.version == version
            assert self.now - generated_at < ttl
        elif key in self.model:
            generated_at, ttl, _ = self.model[key]
            # A fresh model entry may still be missing (evicted), but
            # an expired one must never be served — already covered.
            if self.now - generated_at < ttl:
                pass  # eviction is allowed

    @rule(key=st.sampled_from(KEYS))
    def remove(self, key):
        existed_in_store = key in self.store
        removed = self.store.remove(key)
        assert removed == existed_in_store
        self.model.pop(key, None)

    @rule(delta=st.floats(0.1, 50.0))
    def advance_time(self, delta):
        self.now += delta

    @invariant()
    def capacity_respected(self):
        assert len(self.store) <= MAX_ENTRIES

    @invariant()
    def no_phantom_entries(self):
        for key in self.store.keys():
            assert key in self.model

    @invariant()
    def byte_accounting_consistent(self):
        total = sum(entry.size_bytes for entry in self.store)
        assert total == self.store.backend.bytes_used


CacheStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestCacheStoreStateful = CacheStoreMachine.TestCase
