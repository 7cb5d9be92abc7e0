"""Integration tests for client-side dynamic-block assembly."""

import pytest

from repro.http import Request, Status, URL
from repro.origin import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
)
from repro.speedkit import BlockSpec

from tests.speedkit.conftest import run


@pytest.fixture
def skeleton_route(backend):
    """A page whose body contains block placeholders."""
    site = backend.server.site
    spec = ResourceSpec(
        name="home-skeleton",
        pattern="/home",
        kind=ResourceKind.PAGE,
        personalization=PersonalizationKind.SEGMENT,
        size_bytes=10_000,
    )
    site.routes.insert(0, spec)

    # Patch rendering so the skeleton body carries placeholders.
    original = backend.server._render_body

    def with_placeholders(spec_arg, *rest):
        body = original(spec_arg, *rest)
        if spec_arg.name == "home-skeleton":
            body = f"<header/>{{{{block:cart}}}}<main>{body}</main>"
        return body

    backend.server._render_body = with_placeholders
    return spec


def cart_block():
    return BlockSpec(name="cart", url=URL.parse("/api/blocks/cart"))


class TestAssembly:
    def test_skeleton_and_user_block_compose(
        self, env, backend, make_worker, skeleton_route
    ):
        backend.server.write("carts", "u1", {"items": [1, 2]}, at=0.0)
        worker = make_worker(user_id="u1")
        response = run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/home")), [cart_block()]
            ),
        )
        assert response.status == Status.OK
        assert "{{block:cart}}" not in response.body
        assert '"items": [1, 2]' in response.body
        assert response.served_by.endswith("+blocks")

    def test_skeleton_is_cached_blocks_stay_fresh(
        self, env, backend, make_worker, skeleton_route
    ):
        worker = make_worker(user_id="u1")
        backend.server.write("carts", "u1", {"items": [1]}, at=0.0)
        run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/home")), [cart_block()]
            ),
        )
        # The cart changes; the skeleton does not.
        backend.server.write("carts", "u1", {"items": [1, 2, 3]}, at=env.now)
        response = run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/home")), [cart_block()]
            ),
        )
        # Skeleton came from the SW cache, cart content is current.
        assert response.served_by.startswith("sw:")
        assert '"items": [1, 2, 3]' in response.body

    def test_failed_optional_block_renders_empty(
        self, env, make_worker, skeleton_route
    ):
        worker = make_worker(user_id="u1")
        missing = BlockSpec(
            name="cart", url=URL.parse("/api/blocks/missing")
        )
        response = run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/home")), [missing]
            ),
        )
        assert response.status == Status.OK
        assert "{{block:cart}}" not in response.body

    def test_failed_required_block_fails_page(
        self, env, make_worker, skeleton_route
    ):
        worker = make_worker(user_id="u1")
        required = BlockSpec(
            name="cart",
            url=URL.parse("/api/blocks/missing"),
            optional=False,
        )
        response = run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/home")), [required]
            ),
        )
        assert response.status == Status.NOT_FOUND

    def test_failing_skeleton_short_circuits(self, env, make_worker):
        worker = make_worker()
        response = run(
            env,
            worker.fetch_assembled(
                Request.get(URL.parse("/nowhere")), [cart_block()]
            ),
        )
        assert response.status == Status.NOT_FOUND

    def test_no_blocks_is_plain_fetch(
        self, env, make_worker, skeleton_route
    ):
        worker = make_worker()
        response = run(
            env,
            worker.fetch_assembled(Request.get(URL.parse("/home")), []),
        )
        assert response.status == Status.OK
