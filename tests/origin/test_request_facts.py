"""The origin reads a request's identity and validators once per map.

A header map is a value, and a user's cookie jar hands its one map to
every request of that user, so what the origin derives from a map — the
session identity and the entity tags of ``If-None-Match`` — is kept on
the map itself and read again from there. The gate interleaves
logged-in users (by cookie and by ``X-User-Id``), anonymous users and
conditional maps at one origin, for a USER-personalized and a SEGMENT
resource, reusing each map the way a cookie jar does. Every answer must
be the variant of the map it came with — its ``X-Version-Key`` or ETag,
and whether it is private — and 304 vs 200 must be right. Two committed
mutants trip it: the facts kept per URL, and facts never read again
after the first map.
"""

import random
import sys
import types
from pathlib import Path

import pytest

from repro.http import Headers, Request, Status, URL
from repro.origin import OriginServer, server as server_module
from repro.origin.server import SEGMENT_PARAM, _request_facts

from tests.origin.test_renditions import build_site

USER_PATH = "/account/1"  # USER-personalized
SEGMENT_PATH = "/product/1"  # SEGMENT-personalized

#: A cookie jar: one map per user, handed to each of its requests.
JAR = {
    "u1": Headers({"Cookie": "theme=dark; session=u1"}),
    "u2": Headers({"X-User-Id": "u2"}),
    "u12": Headers({"Cookie": "session=u12"}),
    None: Headers(),
}

STEPS = 240


def misanswered(server_class, seed=0):
    """The answers of ``server_class`` that are not the variant of the
    map they were asked with, or not the right 304 / 200."""
    server = server_class(build_site())
    rng = random.Random(seed)
    etags = {}  # version key -> the ETag its 200 carried
    conditional_maps = []
    wrong = []
    for step in range(STEPS):
        user = rng.choice(list(JAR))
        path = rng.choice([USER_PATH, SEGMENT_PATH])
        url = URL.parse(path)
        if path == SEGMENT_PATH and rng.random() < 0.3:
            url = url.with_param(SEGMENT_PARAM, "a")
        key = server.version_key_for(url, user if path == USER_PATH else None)
        headers = JAR[user]
        token = None
        roll = rng.random()
        if roll < 0.15 and conditional_maps:
            # A conditional map sent again: the facts it already holds.
            user, headers = rng.choice(conditional_maps)
            key = server.version_key_for(url, user if path == USER_PATH else None)
            token = headers["If-None-Match"]
        elif roll < 0.6 and etags:
            # Revalidation: a new map, the jar's plus one validator —
            # its own variant's tag, or another variant's.
            token = rng.choice([etags.get(key, '"none"'), *etags.values()])
            headers = JAR[user].with_item("If-None-Match", token)
            conditional_maps.append((user, headers))
        response = server.handle(Request.get(url, headers=headers), now=float(step))
        expect_304 = token is not None and token == etags.get(key)
        private = user is not None and (
            path == USER_PATH or SEGMENT_PARAM not in url.params
        )
        if response.status != (Status.NOT_MODIFIED if expect_304 else Status.OK):
            wrong.append((step, user, str(url), "status", int(response.status)))
        if response.cache_control.private != private:
            wrong.append((step, user, str(url), "private"))
        if response.status == Status.OK:
            if response.version_key != key:
                wrong.append((step, user, str(url), "key", response.version_key))
            etags.setdefault(key, response.etag)
        if response.etag != etags.get(key):
            wrong.append((step, user, str(url), "etag", response.etag))
    return wrong


def test_every_answer_is_the_variant_of_its_own_map():
    assert misanswered(OriginServer) == []


def test_the_facts_of_a_map_are_what_its_headers_say():
    assert _request_facts(JAR["u1"]) == ("u1", frozenset())
    assert _request_facts(JAR["u2"]) == ("u2", frozenset())
    assert _request_facts(JAR[None]) == (None, frozenset())
    assert _request_facts(Headers({"Cookie": "session="})) == (None, frozenset())
    assert _request_facts(
        Headers({"X-User-Id": "", "If-None-Match": ' "a", "b" '})
    ) == (None, frozenset({'"a"', '"b"'}))


def test_a_map_keeps_its_facts_and_a_new_map_reads_its_own():
    server = OriginServer(build_site())
    headers = Headers({"Cookie": "session=u1"})
    server.handle(Request.get(URL.parse(USER_PATH), headers=headers), now=0.0)
    assert headers._derived == ("u1", frozenset())
    assert headers.with_item("Cookie", "session=u2")._derived is None


HONEST = """\
        facts = headers._derived
        if facts is None:
            facts = headers._derived = _request_facts(headers)
"""

MUTANTS = {
    # The facts kept per URL: users who ask for one URL share them.
    "per-url": """\
        memo = self.__dict__.setdefault("_by_url", {})
        facts = memo.get(request.url)
        if facts is None:
            facts = memo[request.url] = _request_facts(headers)
""",
    # The facts of the first map answer for every later one.
    "never-refreshed": """\
        facts = self.__dict__.get("_first")
        if facts is None:
            facts = self._first = _request_facts(headers)
""",
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_gate_trips_on_a_memo_that_is_not_the_maps(monkeypatch, name):
    source = Path(server_module.__file__).read_text(encoding="utf-8")
    assert source.count(HONEST) == 1
    mutant = types.ModuleType(f"repro_origin_server_{name.replace('-', '_')}")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    code = compile(source.replace(HONEST, MUTANTS[name]), "mutant", "exec")
    exec(code, mutant.__dict__)
    assert misanswered(mutant.OriginServer) != []
