"""Tests for the adaptive TTL policy."""

import pytest

from repro.http import URL
from repro.origin import ResourceKind, ResourceSpec
from repro.origin.server import SEGMENT_PARAM
from repro.ttl import AdaptiveTtlPolicy, TtlEstimator


def spec(kind=ResourceKind.PAGE, ttl_hint=None):
    return ResourceSpec(
        name="r", pattern="/r/{id}", kind=kind, ttl_hint=ttl_hint
    )


@pytest.fixture
def policy():
    return AdaptiveTtlPolicy(
        TtlEstimator(default_ttl=1000.0, max_ttl=5000.0, min_ttl=1.0)
    )


def test_static_assets_are_immutable(policy):
    cc = policy.cache_control(
        spec(ResourceKind.STATIC), URL.of("/static/a.js"), False
    )
    assert cc.immutable
    assert cc.max_age == AdaptiveTtlPolicy.STATIC_TTL


def test_user_personalized_is_private(policy):
    cc = policy.cache_control(spec(), URL.of("/r/1"), True)
    assert cc.no_store and cc.private


def test_unwritten_resource_gets_default(policy):
    cc = policy.cache_control(spec(), URL.of("/r/1"), False)
    assert cc.max_age == 1000.0
    assert cc.public


def test_writes_shorten_ttl(policy):
    url = URL.of("/r/1")
    key = url.cache_key
    policy.observe_resource_write(key, now=0.0)
    policy.observe_resource_write(key, now=10.0)
    cc = policy.cache_control(spec(), url, False)
    assert cc.max_age is not None
    assert cc.max_age < 1000.0


def test_segment_variants_share_one_estimate(policy):
    base = URL.of("/r/1")
    policy.observe_resource_write(base.cache_key, now=0.0)
    policy.observe_resource_write(base.cache_key, now=10.0)
    variant = base.with_param(SEGMENT_PARAM, "s5")
    cc_base = policy.cache_control(spec(), base, False)
    cc_variant = policy.cache_control(spec(), variant, False)
    assert cc_base.max_age == cc_variant.max_age


def test_ttl_hint_wins(policy):
    cc = policy.cache_control(spec(ttl_hint=42.0), URL.of("/r/1"), False)
    assert cc.max_age == 42.0


def test_scorching_key_becomes_no_store():
    policy = AdaptiveTtlPolicy(
        TtlEstimator(min_worthwhile=1.0, min_ttl=0.1)
    )
    url = URL.of("/r/1")
    policy.observe_resource_write(url.cache_key, now=0.0)
    policy.observe_resource_write(url.cache_key, now=0.01)
    cc = policy.cache_control(spec(), url, False)
    assert cc.no_store


def test_swr_attached_when_configured():
    policy = AdaptiveTtlPolicy(stale_while_revalidate=25.0)
    cc = policy.cache_control(spec(), URL.of("/r/1"), False)
    assert cc.stale_while_revalidate == 25.0
