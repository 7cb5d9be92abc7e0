"""Tests for Cache-Control parsing and semantics."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http import CacheControl


class TestParsing:
    def test_empty_and_none(self):
        assert CacheControl.parse(None).max_age is None
        assert CacheControl.parse("").max_age is None

    def test_max_age(self):
        cc = CacheControl.parse("max-age=60")
        assert cc.max_age == 60.0

    def test_s_maxage_and_public(self):
        cc = CacheControl.parse("public, s-maxage=120, max-age=30")
        assert cc.public
        assert cc.s_maxage == 120.0
        assert cc.max_age == 30.0

    def test_flags(self):
        cc = CacheControl.parse(
            "no-store, no-cache, private, must-revalidate, immutable"
        )
        assert cc.no_store and cc.no_cache and cc.private
        assert cc.must_revalidate and cc.immutable

    def test_whitespace_and_case_tolerated(self):
        cc = CacheControl.parse("  Max-Age = 10 ,  PUBLIC ")
        assert cc.max_age == 10.0
        assert cc.public

    def test_invalid_number_treated_as_zero(self):
        assert CacheControl.parse("max-age=banana").max_age == 0.0

    def test_negative_number_clamped_to_zero(self):
        assert CacheControl.parse("max-age=-5").max_age == 0.0

    def test_quoted_value(self):
        assert CacheControl.parse('max-age="45"').max_age == 45.0

    def test_unknown_directives_preserved(self):
        cc = CacheControl.parse("x-speedkit=on, proxy-revalidate")
        assert cc.extensions == (("x-speedkit", "on"), ("proxy-revalidate", None))

    def test_stale_while_revalidate(self):
        cc = CacheControl.parse("max-age=10, stale-while-revalidate=30")
        assert cc.stale_while_revalidate == 30.0


class TestSemantics:
    def test_shared_lifetime_prefers_s_maxage(self):
        cc = CacheControl.parse("s-maxage=100, max-age=10")
        assert cc.shared_lifetime() == 100.0
        assert cc.private_lifetime() == 10.0

    def test_shared_lifetime_falls_back_to_max_age(self):
        assert CacheControl.parse("max-age=10").shared_lifetime() == 10.0

    def test_no_store_forbids_everyone(self):
        cc = CacheControl.parse("no-store")
        assert cc.forbids_storing(shared=True)
        assert cc.forbids_storing(shared=False)

    def test_private_forbids_shared_only(self):
        cc = CacheControl.parse("private, max-age=60")
        assert cc.forbids_storing(shared=True)
        assert not cc.forbids_storing(shared=False)

    def test_no_cache_requires_revalidation(self):
        assert CacheControl.parse(
            "no-cache"
        ).forbids_serving_without_revalidation()


class TestRoundTrip:
    def test_serialize_simple(self):
        cc = CacheControl.parse("public, max-age=60")
        assert CacheControl.parse(cc.serialize()) == cc

    @given(
        max_age=st.one_of(st.none(), st.integers(0, 10**6)),
        s_maxage=st.one_of(st.none(), st.integers(0, 10**6)),
        swr=st.one_of(st.none(), st.integers(0, 10**6)),
        flags=st.lists(
            st.sampled_from(
                [
                    "no_store",
                    "no_cache",
                    "private",
                    "public",
                    "must_revalidate",
                    "immutable",
                ]
            ),
            unique=True,
        ),
    )
    def test_serialize_parse_round_trip(self, max_age, s_maxage, swr, flags):
        cc = CacheControl(
            max_age=None if max_age is None else float(max_age),
            s_maxage=None if s_maxage is None else float(s_maxage),
            stale_while_revalidate=None if swr is None else float(swr),
            **{flag: True for flag in flags},
        )
        assert CacheControl.parse(cc.serialize()) == cc


class TestValue:
    """A parsed instance is shared by every holder of its header value,
    so it cannot be edited."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cc: setattr(cc, "immutable", True),
            lambda cc: setattr(cc, "max_age", 0.0),
            lambda cc: delattr(cc, "public"),
        ],
        ids=["set-flag", "set-lifetime", "delete"],
    )
    def test_an_edit_on_a_parsed_instance_raises(self, edit):
        cc = CacheControl.parse("public, max-age=60")
        with pytest.raises(dataclasses.FrozenInstanceError):
            edit(cc)
        assert CacheControl.parse("public, max-age=60").serialize() == (
            "public, max-age=60"
        )

    def test_extensions_are_read_only(self):
        cc = CacheControl.parse("x-speedkit=on")
        with pytest.raises(TypeError):
            cc.extensions[0] = ("x-speedkit", "off")
        assert CacheControl.parse("x-speedkit=on").extensions == (
            ("x-speedkit", "on"),
        )

    def test_a_value_is_hashable_and_serializes_once(self):
        cc = CacheControl.parse("no-cache, x-a=1")
        twin = CacheControl(no_cache=True, extensions=(("x-a", "1"),))
        assert twin == cc and hash(twin) == hash(cc)
        assert cc.serialize() is cc.serialize()
