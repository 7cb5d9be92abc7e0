"""Tests for routing rules and configuration."""

import fnmatch

import pytest

from repro.speedkit import RoutingRules, SpeedKitConfig


def accelerated(rules, path):
    return SpeedKitConfig(rules=rules).route(path).accelerate


class TestRoutingRules:
    def test_empty_rules_accelerate_every_path(self):
        assert accelerated(RoutingRules(), "/anything")

    def test_whitelist_restricts(self):
        rules = RoutingRules(whitelist=["/product/*", "/static/*"])
        assert accelerated(rules, "/product/42")
        assert accelerated(rules, "/static/app.js")
        assert not accelerated(rules, "/checkout")

    def test_blacklist_wins_over_whitelist(self):
        rules = RoutingRules(
            whitelist=["/product/*"], blacklist=["/product/secret*"]
        )
        assert accelerated(rules, "/product/42")
        assert not accelerated(rules, "/product/secret-sale")

    def test_blacklist_alone(self):
        rules = RoutingRules(blacklist=["/account*"])
        assert accelerated(rules, "/product/1")
        assert not accelerated(rules, "/account/settings")


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
        assert config.route("/product/1").segmented
        assert not config.route("/static/a.js").segmented
        assert config.route("/api/blocks/cart").user_block
        assert not config.route("/product/1").user_block

    def test_ecommerce_default_shape(self):
        config = SpeedKitConfig.ecommerce_default()
        assert config.route("/product/42").accelerate
        assert not config.route("/checkout/pay").accelerate
        assert config.route("/api/blocks/cart").user_block
        assert config.route("/category/shoes").segmented


class TestResolvedRoute:
    """``route(path)`` ≡ one ``fnmatch`` per pattern, per request."""

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


#: The deployment config's decision for each path:
#: ``(path, user_block, accelerate, segmented)``.
ECOMMERCE_ROUTES = [
    ("/", False, True, True),
    ("/static/app.js", False, True, False),
    ("/static/css/site.css", False, True, False),
    ("/product/42", False, True, True),
    ("/product/", False, True, True),
    ("/product", False, False, False),
    ("/category/shoes", False, True, True),
    ("/api/products/7", False, True, False),
    ("/api/recommendations", False, True, True),
    ("/api/recommendations/7", False, False, False),
    ("/search", False, True, False),
    ("/checkout", False, False, False),
    ("/checkout/pay", False, False, False),
    ("/account/settings", False, False, False),
    ("/accounts", False, False, False),
    ("/api/documents/carts/u1", False, False, False),
    ("/api/blocks/cart", True, False, False),
    ("/Product/42", False, False, False),
    ("/index.html", False, False, False),
    ("/unlisted", False, False, False),
]


@pytest.mark.parametrize(
    "path, user_block, accelerate, segmented",
    ECOMMERCE_ROUTES,
    ids=[row[0] for row in ECOMMERCE_ROUTES],
)
def test_ecommerce_default_routes(path, user_block, accelerate, segmented):
    route = SpeedKitConfig.ecommerce_default().route(path)
    assert route.user_block is user_block
    assert route.accelerate is accelerate
    assert route.segmented is segmented


#: ``(pattern, path, matches)``: shell-style globs over the whole path,
#: case-sensitive, with every regex metacharacter taken literally.
GLOBS = [
    ("*", "/anything", True),
    ("/static/*", "/static/a/b.css", True),
    ("/p?", "/p1", True),
    ("/p?", "/p12", False),
    ("/p[0-9]", "/p7", True),
    ("/p[!0-9]", "/p7", False),
    ("/p[!0-9]", "/px", True),
    ("/a.b", "/aXb", False),
    ("/a+b", "/a+b", True),
    ("/a+b", "/aab", False),
    ("/(x)", "/(x)", True),
    ("/x$", "/x$", True),
    ("/a|/b", "/a", False),
    ("/search", "/search/", False),
    ("/search", "/searchx", False),
    ("/Search", "/search", False),
]


@pytest.mark.parametrize(
    "pattern, path, matches",
    GLOBS,
    ids=[f"{pattern} {path}" for pattern, path, _ in GLOBS],
)
def test_every_pattern_list_matches_like_fnmatchcase(pattern, path, matches):
    assert fnmatch.fnmatchcase(path, pattern) is matches
    listed = SpeedKitConfig(
        rules=RoutingRules(whitelist=[pattern]),
        segment_personalized=[pattern],
        user_personalized=[pattern],
    ).route(path)
    assert listed == (matches, matches, matches)
    blacklisted = SpeedKitConfig(rules=RoutingRules(blacklist=[pattern]))
    assert blacklisted.route(path).accelerate is not matches
