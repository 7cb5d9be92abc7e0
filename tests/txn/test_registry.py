"""The in-flight transaction registry and its erasure hooks."""

import pytest

from repro.gdpr.matching import UserDataMatcher
from repro.http import Headers, Response, Status, URL
from repro.txn import TxnRegistry

pytestmark = pytest.mark.txn


def _response(body):
    return Response(
        status=Status.OK,
        headers=Headers({"Cache-Control": "no-store"}),
        body=body,
        url=URL.parse("/api/products/1"),
        generated_at=0.0,
        served_by="origin",
    )


class TestLifecycle:
    def test_begin_buffer_finish(self):
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(context, "products/1", _response("shared"))
        assert registry.in_flight == 1
        registry.finish(context)
        assert registry.in_flight == 0
        assert context.buffered == {}

    def test_contexts_get_distinct_ids(self):
        registry = TxnRegistry()
        a, b = registry.begin("u1"), registry.begin("u2")
        assert a.txn_id != b.txn_id
        assert registry.in_flight == 2

    def test_start_epoch_snapshots_the_erase_counter(self):
        registry = TxnRegistry()
        before = registry.begin("u1")
        registry.scrub_matching(UserDataMatcher("u9"))
        after = registry.begin("u1")
        assert before.start_epoch == 0
        assert after.start_epoch == 1


class TestScrubbing:
    def test_user_keyed_buffer_is_scrubbed_and_poisoned(self):
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(context, "carts/u1", _response("shared"))
        registry.buffer(context, "products/2", _response("shared"))
        scrubbed = registry.scrub_matching(UserDataMatcher("u1"))
        assert scrubbed == 1
        assert context.poisoned == {"carts/u1"}
        assert list(context.buffered) == ["products/2"]

    def test_user_valued_buffer_is_scrubbed(self):
        """Adversarial injection: identity hidden in the response body,
        not the key — the value walk must still find it."""
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(
            context, "products/7", _response({"viewer": "u1", "price": 3})
        )
        assert registry.scrub_matching(UserDataMatcher("u1")) == 1
        assert context.poisoned == {"products/7"}

    def test_token_boundaries_protect_other_users(self):
        """Erasing u1 must not take u12's buffered reads with it."""
        registry = TxnRegistry()
        context = registry.begin("u12")
        registry.buffer(context, "carts/u12", _response("u12 stuff"))
        assert registry.scrub_matching(UserDataMatcher("u1")) == 0
        assert context.poisoned == set()

    def test_every_scrub_bumps_the_epoch_even_when_empty(self):
        """A racing erase is detectable even when it hit no buffers."""
        registry = TxnRegistry()
        registry.scrub_matching(UserDataMatcher("u1"))
        registry.scrub_matching(UserDataMatcher("u2"))
        assert registry.erase_epoch == 2

    def test_scrub_spans_all_in_flight_transactions(self):
        registry = TxnRegistry()
        first, second = registry.begin("a"), registry.begin("b")
        registry.buffer(first, "carts/u5", _response("x"))
        registry.buffer(second, "orders/u5", _response("y"))
        assert registry.scrub_matching(UserDataMatcher("u5")) == 2
        assert first.poisoned and second.poisoned


class TestResiduals:
    def test_residual_view_sees_surviving_matches(self):
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(context, "carts/u1", _response("shared"))
        assert registry.buffers_matching(UserDataMatcher("u1")) == [
            "carts/u1"
        ]

    def test_residuals_empty_after_scrub(self):
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(context, "carts/u1", _response("shared"))
        registry.buffer(context, "products/3", _response({"viewer": "u1"}))
        registry.scrub_matching(UserDataMatcher("u1"))
        assert registry.buffers_matching(UserDataMatcher("u1")) == []

    def test_finished_transactions_leave_no_residuals(self):
        registry = TxnRegistry()
        context = registry.begin("u1")
        registry.buffer(context, "carts/u1", _response("shared"))
        registry.finish(context)
        assert registry.buffers_matching(UserDataMatcher("u1")) == []
