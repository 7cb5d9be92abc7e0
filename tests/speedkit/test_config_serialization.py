"""Tests for config (de)serialization."""

import json

import pytest

from repro.speedkit import SpeedKitConfig


def test_round_trip_default():
    config = SpeedKitConfig.ecommerce_default()
    restored = SpeedKitConfig.from_dict(config.to_dict())
    assert restored.to_dict() == config.to_dict()
    assert restored.rules.whitelist == config.rules.whitelist
    assert restored.sketch_refresh_interval == (
        config.sketch_refresh_interval
    )


def test_round_trip_through_json():
    config = SpeedKitConfig.ecommerce_default()
    config.stale_while_revalidate = True
    config.swr_staleness_budget = 90.0
    text = json.dumps(config.to_dict())
    restored = SpeedKitConfig.from_dict(json.loads(text))
    assert restored.stale_while_revalidate
    assert restored.swr_staleness_budget == 90.0


def test_minimal_dict_uses_defaults():
    config = SpeedKitConfig.from_dict({"whitelist": ["/shop/*"]})
    assert config.rules.whitelist == ["/shop/*"]
    assert config.sketch_refresh_interval == 60.0
    assert config.offline_mode


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        SpeedKitConfig.from_dict({"whitelst": ["/typo/*"]})


def test_invalid_values_still_validated():
    with pytest.raises(ValueError):
        SpeedKitConfig.from_dict({"sketch_refresh_interval": 0.0})


PATTERN_KEYS = (
    "whitelist",
    "blacklist",
    "segment_personalized",
    "user_personalized",
)


@pytest.mark.parametrize("key", PATTERN_KEYS)
@pytest.mark.parametrize(
    "value",
    ["/static/*", b"/static/*", 7, None, {"/static/*": True}, ["/ok", 7]],
    ids=["str", "bytes", "int", "none", "dict", "list-with-int"],
)
def test_pattern_lists_must_be_lists_of_strings(key, value):
    """A bare string used to be iterated letter by letter, leaving
    patterns that match only the path ``/``."""
    with pytest.raises(ValueError, match=f"'{key}' must be a list"):
        SpeedKitConfig.from_dict({key: value})


@pytest.mark.parametrize("key", PATTERN_KEYS)
def test_pattern_lists_accept_lists_and_tuples(key):
    for value in (["/a/*", "/b"], ("/a/*", "/b"), []):
        assert SpeedKitConfig.from_dict({key: value}).to_dict()[key] == list(
            value
        )
