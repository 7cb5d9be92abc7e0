"""UserDataMatcher: token-boundary identity matching over keys/values."""

import copy
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import CacheEntry, CacheStore
from repro.gdpr import UserDataMatcher
from repro.gdpr.matching import _SEPARATOR, identity_strings, identity_text
from repro.http import URL, Headers
from repro.http.messages import Response, Status
from repro.origin.server import EngineReads, Rendition
from repro.origin.store import Document
from tests.gdpr.reference import ReferenceMatcher


class TestKeyMatching:
    def test_matches_the_bare_id(self):
        assert UserDataMatcher("u1").matches_key("u1")

    def test_matches_id_inside_a_path(self):
        matcher = UserDataMatcher("u1")
        assert matcher.matches_key("/api/documents/carts/u1")
        assert matcher.matches_key("shop.example/carts/u1?fields=items")

    def test_matches_id_in_query_params(self):
        assert UserDataMatcher("u1").matches_key("/search?user=u1&q=shoes")

    def test_prefix_ids_do_not_cross_match(self):
        """u1 must never match u12's data (and vice versa)."""
        assert not UserDataMatcher("u1").matches_key("/carts/u12")
        assert not UserDataMatcher("u12").matches_key("/carts/u1")

    def test_id_embedded_in_a_word_does_not_match(self):
        matcher = UserDataMatcher("u1")
        assert not matcher.matches_key("au1b")
        assert not matcher.matches_key("menu1")
        assert not matcher.matches_key("u1x")

    def test_callable_protocol_is_the_key_predicate(self):
        matcher = UserDataMatcher("u1")
        assert matcher("/carts/u1")
        assert not matcher("/carts/u2")


@dataclass
class _Doc:
    owner: str
    items: list


class TestValueMatching:
    def test_matches_plain_strings(self):
        assert UserDataMatcher("u1").matches_value("cart of u1")

    def test_matches_bytes(self):
        assert UserDataMatcher("u1").matches_value(b"cart of u1")

    def test_walks_nested_containers(self):
        matcher = UserDataMatcher("u1")
        assert matcher.matches_value({"orders": [{"owner": "u1"}]})
        assert matcher.matches_value(("a", ["b", {"c": "user=u1"}]))

    def test_walks_object_attributes(self):
        matcher = UserDataMatcher("u1")
        assert matcher.matches_value(_Doc(owner="u1", items=[]))
        assert not matcher.matches_value(_Doc(owner="u2", items=[]))

    def test_matches_dict_keys_too(self):
        assert UserDataMatcher("u1").matches_value({"u1": "present"})

    def test_non_matching_values(self):
        matcher = UserDataMatcher("u1")
        assert not matcher.matches_value("cart of u12")
        assert not matcher.matches_value(42)
        assert not matcher.matches_value(None)
        assert not matcher.matches_value({"owner": "u2"})


class TestEntryMatching:
    def test_key_or_value_suffices(self):
        matcher = UserDataMatcher("u1")
        assert matcher.matches_entry("/carts/u1", "opaque")
        assert matcher.matches_entry("/page", {"viewer": "u1"})
        assert not matcher.matches_entry("/page", {"viewer": "u2"})


# -- attribute names are schema, not user data -------------------------------


def _anonymous_shapes():
    response = Response(
        status=Status.OK,
        headers=Headers({"Cache-Control": "max-age=60", "ETag": '"p/3:v1"'}),
        body='{"name": "Shoe"}',
        url=URL.parse("/api/products/3"),
        version=1,
        served_by="edge-eu",
        generated_at=12.0,
    )
    return [
        response,
        CacheEntry(
            key="shop.example/api/products/3",
            response=response,
            stored_at=12.0,
            size_bytes=16,
        ),
        Document("products", "3", {"name": "Shoe", "price": 9}, 1, 12.0),
        Rendition(
            reads=EngineReads((("products", "3"),), (), None),
            version=1,
            body='{"name": "Shoe"}',
            etag='"p/3:v1"',
            born="0.0",
        ),
    ]


class TestFieldNamesAreNotData:
    """A user whose id spells a field name must not own every entry:
    before identity texts, ``UserDataMatcher("key")`` matched every
    ``CacheEntry`` (the walk read ``__dict__`` keys as data)."""

    @pytest.mark.parametrize(
        "shape", _anonymous_shapes(), ids=lambda shape: type(shape).__name__
    )
    def test_an_anonymous_value_matches_none_of_its_own_field_names(
        self, shape
    ):
        # The names a shape is built from. (What it derives from them
        # — a response's ``etag`` fact, the memo — can spell a header
        # name, and header names are data; ``TestIdentityText`` pins
        # that derived attributes are not searched at all.)
        names = {
            field.name
            for holder in (shape, getattr(shape, "response", None))
            if holder is not None
            for field in fields(holder)
            if field.init
        }
        assert {"key", "response", "body", "served_by", "version"} & names
        for name in names:
            assert not UserDataMatcher(name).matches_value(shape), name
            assert not UserDataMatcher(name).matches_entry("/k", shape), name
            assert not ReferenceMatcher(name).matches_value(shape), name

    def test_names_of_real_dicts_stay_data(self):
        """Header names and document fields are bytes someone wrote."""
        assert UserDataMatcher("u1").matches_value(Headers({"u1": "x"}))
        assert UserDataMatcher("u1").matches_value(
            Document("carts", "c9", {"u1": ["p1"]}, 1, 0.0)
        )

    def test_a_nul_in_the_id_is_refused(self):
        """The separator of an identity text: an id containing it
        could match across two strings."""
        with pytest.raises(ValueError, match="NUL"):
            UserDataMatcher("u\x001")


@dataclass(frozen=True, slots=True)
class _SlottedBase:
    user_id: str


@dataclass(frozen=True, slots=True)
class _SlottedChild(_SlottedBase):
    note: str = ""


class _Plain(_SlottedBase):
    """A subclass without ``__slots__``: a ``__dict__`` *and* a slot."""


class TestInheritedSlots:
    """A slotted class declares only its own fields in ``__slots__``;
    the ones it inherits live in its bases' ``__slots__`` (the shape of
    every trace event). Reading ``type(value).__slots__`` alone missed
    them: ``identity_strings(_SlottedChild("u7", "hello"))`` was
    ``['hello']``."""

    def test_a_field_declared_on_a_slotted_base_is_reachable(self):
        value = _SlottedChild("u7", "hello")
        assert sorted(identity_strings(value)) == ["hello", "u7"]
        assert UserDataMatcher("u7").matches_value(value)
        assert ReferenceMatcher("u7").matches_value(value)
        assert not UserDataMatcher("u8").matches_value(value)

    def test_a_slot_beside_a_dict_is_reachable(self):
        value = _Plain("u7")
        object.__setattr__(value, "extra", "hello")
        assert sorted(identity_strings(value)) == ["hello", "u7"]
        assert UserDataMatcher("u7").matches_value(value)
        assert ReferenceMatcher("u7").matches_value(value)


# -- the identity text ---------------------------------------------------------


class TestIdentityText:
    def test_kept_on_the_stored_shapes_after_the_first_visit(self):
        for shape in _anonymous_shapes()[1:]:
            clone, twin = copy.deepcopy(shape), copy.deepcopy(shape)
            assert clone._identity_text is None
            UserDataMatcher("u1").matches_value(clone)
            assert clone._identity_text == identity_text(clone)
            assert clone._identity_text == _SEPARATOR.join(
                identity_strings(clone)
            )
            # Bookkeeping: not part of equality or repr.
            assert clone == twin and repr(clone) == repr(twin)

    def test_plain_values_keep_nothing(self):
        def slots(response):
            return {name: getattr(response, name) for name in Response.__slots__}

        response = _anonymous_shapes()[0]
        before = slots(response)
        assert not UserDataMatcher("u1").matches_value(response)
        assert slots(response) == before

    def test_a_stored_entrys_text_is_the_one_it_always_was(self):
        """Pinned to the string the walk produced before ``Response``
        carried its derived facts: what a response restates of its own
        header map (``etag``, ``version_key``, the parsed
        ``Cache-Control``…) is bookkeeping, like the memo, and must not
        be searched a second time as if it were more user data."""
        response = Response(
            status=Status.OK,
            headers=Headers(
                {
                    "Cache-Control": "public, max-age=60",
                    "ETag": '"products/3:v7"',
                    "Content-Length": "16",
                    "X-Resource-Kind": "api",
                    "X-Version-Key": "products/3",
                    "X-Version-Born": "11.5",
                }
            ),
            body='{"name": "Shoe", "viewer": "u5"}',
            url=URL.parse("/api/products/3?__segment=gold"),
            version=7,
            served_by="origin",
            generated_at=12.0,
        )
        key = "shop.example/api/products/3?__segment=gold"
        entry = CacheStore(shared=True).put(key, response, now=12.5)
        text = identity_text(entry)
        assert text == _SEPARATOR.join(
            [
                key,
                '{"name": "Shoe", "viewer": "u5"}',
                "origin",
                "/api/products/3",
                "shop.example",
                key,
                *("cache-control", "etag", "content-length"),
                *("x-resource-kind", "x-version-key", "x-version-born"),
                *("Cache-Control", "public, max-age=60"),
                *("ETag", '"products/3:v7"'),
                *("Content-Length", "16"),
                *("X-Resource-Kind", "api"),
                *("X-Version-Key", "products/3"),
                *("X-Version-Born", "11.5"),
                *("__segment", "gold"),
            ]
        )
        for _, value in response.headers.items():
            assert text.split(_SEPARATOR).count(value) == 1, value
        assert UserDataMatcher("u5").matches_value(entry)
        # A serving is searched exactly like the response it shares.
        assert identity_strings(response.served("edge-1")) == [
            "edge-1" if found == "origin" else found
            for found in identity_strings(response)
        ]

    def test_a_serve_never_edits_the_stored_entry(self):
        """What keeps a kept text true: serving writes the policy
        layer's recency order, never the entry."""

        def fields(entry):
            kept = copy.deepcopy(vars(entry))
            del kept["_identity_text"]
            return kept

        response = _anonymous_shapes()[0]
        store = CacheStore(shared=True)
        entry = store.put("k", response, now=12.0)
        text, before = identity_text(entry), fields(entry)
        assert store.get_fresh("k", now=13.0) is entry
        assert store.get("k", now=14.0) is entry
        assert store.get_fresh_many(["k"], now=15.0) == {"k": entry}
        assert store.peek("k") is entry
        assert fields(entry) == before
        assert text == _SEPARATOR.join(identity_strings(entry))

    def test_strings_are_never_joined_into_a_token(self):
        """``("u", "1")`` holds no ``u1``; ``("x", "u1")`` does."""
        assert not UserDataMatcher("u1").matches_value(("u", "1"))
        assert not UserDataMatcher("u1").matches_value(["xu", "1"])
        assert UserDataMatcher("u1").matches_value(("x", "u1"))

    def test_a_cyclic_value_ends(self):
        loop = {"owner": "u2"}
        loop["self"] = [loop, loop]
        assert not UserDataMatcher("u1").matches_value(loop)
        assert UserDataMatcher("u2").matches_value(loop)


# -- the flattened matcher ≡ the recursive walk it replaced --------------------

#: Ids that are prefixes, suffixes and infixes of each other and of
#: the tokens around them; ``-``, ``.`` and ``é`` are not token
#: characters, so they bound a token from inside an id too.
_IDS = ["u1", "u12", "1", "2u1", "u_1", "u-1", "u1.2", "é1", "key", "body"]
_TEXTS = st.text("u12_-/. é\x00", max_size=6)
_NEAR_ID = st.builds(
    lambda before, uid, after: before + uid + after,
    _TEXTS,
    st.sampled_from(_IDS),
    _TEXTS,
)
_TEXT = st.one_of(_TEXTS, _NEAR_ID)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, width=16),
    _TEXT,
    _TEXT.map(lambda s: s.encode("utf-8")),
)
_DATA = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(_TEXT, max_size=3),
        st.frozensets(_TEXT, max_size=3),
        st.dictionaries(_TEXT, inner, max_size=3),
    ),
    max_leaves=8,
)
_TOKEN = st.text("u12_", min_size=1, max_size=4)
_RESPONSES = st.builds(
    Response,
    status=st.sampled_from([Status.OK, Status.NOT_FOUND]),
    headers=st.dictionaries(_TEXT, _TEXT, max_size=3).map(Headers),
    body=_DATA,
    url=st.one_of(
        st.none(),
        st.builds(
            lambda path, query: URL(path="/" + path, query=tuple(query)),
            _TOKEN,
            st.lists(st.tuples(_TOKEN, _TEXT), max_size=2),
        ),
    ),
    version=st.one_of(st.none(), st.integers(0, 12)),
    served_by=_TEXT,
)
_DOC_REFS = st.lists(st.tuples(_TEXT, _TEXT), max_size=2).map(tuple)
_STORED = st.one_of(
    st.builds(
        CacheEntry,
        key=_TEXT,
        response=_RESPONSES,
        stored_at=st.just(1.0),
        size_bytes=st.integers(0, 12),
    ),
    st.builds(
        Document,
        _TEXT,
        _TEXT,
        st.dictionaries(_TEXT, _DATA, max_size=3),
        st.integers(1, 12),
        st.just(1.0),
    ),
    st.builds(
        Rendition,
        reads=st.builds(EngineReads, _DOC_REFS, _DOC_REFS, st.none()),
        version=st.integers(1, 12),
        body=_TEXT,
        etag=_TEXT,
        born=_TEXT,
    ),
)
#: A write-behind queue slot: ``("put", key, value, size)``.
_QUEUED = st.builds(lambda key, value: ("put", key, value, 3), _TEXT, _STORED)
_VALUES = st.one_of(
    _DATA, _RESPONSES, _STORED, _QUEUED, st.lists(_STORED, max_size=2)
)


class TestFlattenedMatcherIsTheRecursiveWalk:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES, _TEXT)
    def test_same_answer_on_every_value(self, value, key):
        for user_id in _IDS:
            matcher, oracle = UserDataMatcher(user_id), ReferenceMatcher(user_id)
            expected = oracle.matches_value(value)
            # Twice: flattening now, then from the kept text.
            assert matcher.matches_value(value) == expected, user_id
            assert matcher.matches_value(value) == expected, user_id
            assert matcher.matches_entry(key, value) == oracle.matches_entry(
                key, value
            )
            assert matcher.matches_key(key) == oracle.matches_key(key)
