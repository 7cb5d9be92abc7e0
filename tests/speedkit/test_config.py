"""Tests for routing rules and configuration."""

import fnmatch

import pytest

from repro.http import Method, Request, URL
from repro.speedkit import RoutingRules, SpeedKitConfig


def get(path):
    return Request.get(URL.parse(path))


def post(path):
    return Request(method=Method.POST, url=URL.parse(path))


class TestRoutingRules:
    def test_empty_rules_accelerate_all_safe_requests(self):
        rules = RoutingRules()
        assert rules.should_accelerate(get("/anything"))

    def test_unsafe_methods_never_accelerated(self):
        rules = RoutingRules()
        assert not rules.should_accelerate(post("/anything"))

    def test_whitelist_restricts(self):
        rules = RoutingRules(whitelist=["/product/*", "/static/*"])
        assert rules.should_accelerate(get("/product/42"))
        assert rules.should_accelerate(get("/static/app.js"))
        assert not rules.should_accelerate(get("/checkout"))

    def test_blacklist_wins_over_whitelist(self):
        rules = RoutingRules(
            whitelist=["/product/*"], blacklist=["/product/secret*"]
        )
        assert rules.should_accelerate(get("/product/42"))
        assert not rules.should_accelerate(get("/product/secret-sale"))

    def test_blacklist_alone(self):
        rules = RoutingRules(blacklist=["/account*"])
        assert rules.should_accelerate(get("/product/1"))
        assert not rules.should_accelerate(get("/account/settings"))


class TestSpeedKitConfig:
    def test_refresh_interval_validation(self):
        with pytest.raises(ValueError):
            SpeedKitConfig(sketch_refresh_interval=0.0)

    @pytest.mark.parametrize(
        "knob, bad",
        [
            (knob, bad)
            for knob, accepts_zero in (
                ("sketch_refresh_interval", False),
                ("swr_staleness_budget", True),
                ("stale_if_error_window", True),
            )
            for bad in (float("nan"), float("inf"), -1.0, -float("inf"))
            + (() if accepts_zero else (0.0,))
        ],
    )
    def test_durations_are_finite_and_in_range(self, knob, bad):
        """``nan < 0`` and ``nan <= 0`` are both false: a NaN window
        used to build, and then served arbitrarily old copies under the
        *bounded*-stale mark."""
        with pytest.raises(ValueError, match=f"^{knob} must be finite"):
            SpeedKitConfig(**{knob: bad})

    def test_in_range_durations_build(self):
        config = SpeedKitConfig(
            sketch_refresh_interval=0.5,
            swr_staleness_budget=0.0,
            stale_if_error_window=0.0,
        )
        assert config.stale_if_error_window == 0.0
        assert SpeedKitConfig().stale_if_error_window is None

    def test_personalization_classification(self):
        config = SpeedKitConfig(
            segment_personalized=["/product/*"],
            user_personalized=["/api/blocks/*"],
        )
        assert config.is_segment_personalized(get("/product/1"))
        assert not config.is_segment_personalized(get("/static/a.js"))
        assert config.is_user_personalized(get("/api/blocks/cart"))
        assert not config.is_user_personalized(get("/product/1"))

    def test_ecommerce_default_shape(self):
        config = SpeedKitConfig.ecommerce_default()
        assert config.rules.should_accelerate(get("/product/42"))
        assert not config.rules.should_accelerate(get("/checkout/pay"))
        assert config.is_user_personalized(get("/api/blocks/cart"))
        assert config.is_segment_personalized(get("/category/shoes"))


class TestResolvedRoute:
    """``route(path)`` ≡ the three predicates as they were defined
    before it existed: one ``fnmatch`` per pattern, per request."""

    PATHS = [
        "/",
        "/static/app.js",
        "/static/",
        "/product/1",
        "/product/",
        "/category/shoes",
        "/api/products/7",
        "/api/recommendations",
        "/search",
        "/checkout",
        "/checkout/pay",
        "/account",
        "/accounts/x",
        "/api/documents/carts/u1",
        "/api/blocks/cart",
        "/unlisted",
        "/Product/1",
        "/static/a/b.css",
    ]

    @staticmethod
    def reference(config, path):
        def matches(patterns):
            return any(fnmatch.fnmatchcase(path, p) for p in patterns)

        rules = config.rules
        accelerate = not matches(rules.blacklist) and (
            not rules.whitelist or matches(rules.whitelist)
        )
        return (
            matches(config.user_personalized),
            accelerate,
            matches(config.segment_personalized),
        )

    def assert_agrees(self, config):
        for path in self.PATHS:
            expected = self.reference(config, path)
            assert tuple(config.route(path)) == expected, path
            for request, safe in ((get(path), True), (post(path), False)):
                assert config.is_user_personalized(request) == expected[0]
                assert config.rules.should_accelerate(request) == (
                    safe and expected[1]
                )
                assert config.is_segment_personalized(request) == expected[2]

    def test_ecommerce_default(self):
        self.assert_agrees(SpeedKitConfig.ecommerce_default())

    def test_empty_lists(self):
        self.assert_agrees(SpeedKitConfig())

    def test_lists_edited_after_first_use(self):
        config = SpeedKitConfig.ecommerce_default()
        self.assert_agrees(config)
        config.rules.blacklist.append("/product/*")
        self.assert_agrees(config)
        assert not config.route("/product/1").accelerate
        config.segment_personalized = []
        self.assert_agrees(config)
        assert not config.route("/category/shoes").segmented
        config.rules.whitelist.clear()
        config.user_personalized[0] = "/search"
        self.assert_agrees(config)
        assert config.route("/unlisted").accelerate
        assert config.route("/search").user_block

    def test_equal_lists_in_two_configs_do_not_interfere(self):
        edited = SpeedKitConfig.ecommerce_default()
        untouched = SpeedKitConfig.ecommerce_default()
        assert edited.route("/product/1") == untouched.route("/product/1")
        edited.rules.blacklist.append("/product/*")
        assert not edited.route("/product/1").accelerate
        assert untouched.route("/product/1").accelerate
