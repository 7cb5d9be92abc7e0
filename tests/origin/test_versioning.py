"""Tests for the ground-truth resource version registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.origin import ResourceVersions


@pytest.fixture
def versions():
    return ResourceVersions()


class TestRegistration:
    def test_register_starts_at_version_1(self, versions):
        versions.register("r", at=5.0)
        assert versions.current("r") == 1

    def test_register_is_idempotent(self, versions):
        versions.register("r", at=0.0)
        versions.bump("r", at=1.0)
        versions.register("r", at=2.0)
        assert versions.current("r") == 2

    def test_unknown_resource_raises(self, versions):
        with pytest.raises(KeyError):
            versions.current("ghost")
        with pytest.raises(KeyError):
            versions.version_at("ghost", 0.0)


class TestBumping:
    def test_bump_increments(self, versions):
        versions.register("r")
        assert versions.bump("r", at=1.0) == 2
        assert versions.bump("r", at=2.0) == 3

    def test_bump_backwards_in_time_rejected(self, versions):
        versions.register("r", at=5.0)
        with pytest.raises(ValueError):
            versions.bump("r", at=1.0)

    def test_bump_at_same_time_allowed(self, versions):
        versions.register("r", at=5.0)
        versions.bump("r", at=5.0)
        assert versions.current("r") == 2


class TestDependencies:
    def test_dependency_reverse_index(self, versions):
        versions.depend("page-a", "products/1")
        versions.depend("page-a", "products/2")
        versions.depend("page-b", "products/1")
        assert versions.dependents_of("products/1") == {"page-a", "page-b"}
        assert versions.dependents_of("products/2") == {"page-a"}
        # Depending registers the resource, and bumps nothing.
        assert versions.current("page-a") == 1

    def test_no_dependents_is_empty(self, versions):
        assert versions.dependents_of("ghost/1") == set()


class TestHistory:
    def test_version_at_times(self, versions):
        versions.register("r", at=0.0)
        versions.bump("r", at=10.0)
        versions.bump("r", at=20.0)
        assert versions.version_at("r", 0.0) == 1
        assert versions.version_at("r", 9.99) == 1
        assert versions.version_at("r", 10.0) == 2
        assert versions.version_at("r", 15.0) == 2
        assert versions.version_at("r", 100.0) == 3

    def test_version_before_existence_raises(self, versions):
        versions.register("r", at=10.0)
        with pytest.raises(ValueError):
            versions.version_at("r", 5.0)

    def test_known_resources_sorted(self, versions):
        versions.register("b")
        versions.register("a")
        assert versions.known_resources() == ["a", "b"]


@given(bump_times=st.lists(st.floats(0.001, 1000), min_size=1, max_size=30))
def test_version_at_is_consistent_with_bump_order(bump_times):
    versions = ResourceVersions()
    versions.register("r", at=0.0)
    times = sorted(bump_times)
    for t in times:
        versions.bump("r", at=t)
    # After all bumps the current version is 1 + number of bumps, and
    # version_at after the last bump agrees.
    assert versions.current("r") == 1 + len(times)
    assert versions.version_at("r", times[-1] + 1) == 1 + len(times)
    # At time zero only version 1 existed.
    assert versions.version_at("r", 0.0) == 1


@given(n_bumps=st.integers(0, 12))
def test_superseded_at_agrees_with_a_scan_of_the_history(n_bumps):
    """The index lookup answers exactly what walking the history for
    the successor version did — including ``None`` for the current
    version and for versions that never existed."""
    versions = ResourceVersions()
    versions.register("r", at=0.5)
    for i in range(n_bumps):
        versions.bump("r", at=1.0 + i)
    history = versions.history("r")
    for version in range(-2, n_bumps + 4):
        scanned = next(
            (time for time, v in history if v == version + 1), None
        )
        assert versions.superseded_at("r", version) == scanned
    assert versions.superseded_at("r", versions.current("r")) is None
