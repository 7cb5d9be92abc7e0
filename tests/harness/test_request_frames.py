"""Frames per request: the frames a request crosses from its fetcher to
its answer are the ones DESIGN's *Frames per request* table names.

One untraced request of each kind in the table runs on a runner-built
stack under ``sys.setprofile``. The probe records, in the order they
are entered, the ``repro`` frames that hand the request on — every
generator frame and every plain function that returns a generator —
and the frames of the cost-pool drain (``charge`` and
``drain_latency``). A frame that only forwards shows up as an extra
entry, so each committed mutant below, one such frame put back, trips
the gate. The probe runs in a fresh interpreter over a source tree, so
a mutant of the real files can be shown to trip it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

FRAMES_PROBE = """
import inspect
import json
import random
import sys

import repro
from repro.faults import RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http import Method, Request, URL
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    generate_catalog,
    generate_users,
)
from repro.workload.trace import PageView, WorkloadTrace

ROOT = sys.argv[1]
assert repro.__file__.startswith(ROOT), repro.__file__
DRAIN = ("charge", "drain_latency")


def qualnames():
    names = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type) and value.__module__ == name:
                members = list(vars(value).values())
            for member in members:
                member = getattr(member, "__func__", member)
                code = getattr(member, "__code__", None)
                if code is not None:
                    names.setdefault(code, member.__qualname__)
    return names


catalog = generate_catalog(CatalogConfig(n_products=5), random.Random(0))
users = generate_users(
    UserPopulationConfig(n_users=4, consent_fraction=1.0, logged_in_fraction=1.0),
    random.Random(1),
)
user = users.users[0]
trace = WorkloadTrace([PageView(at=0.0, user_id=user.user_id, page_kind="home")])


def client(scenario, **knobs):
    runner = SimulationRunner(ScenarioSpec(scenario, **knobs), catalog, users, trace)
    runner._build()
    return runner, runner._stack_for(user).fetcher


def frames(stack, path):
    runner, fetcher = stack
    request = Request(Method.GET, URL.parse(path), fetcher.request_headers)
    names = qualnames()
    seen, order = {}, []

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(ROOT) or code.co_name[0] == "<":
            return
        if event == "call" and frame not in seen:
            generator = bool(code.co_flags & inspect.CO_GENERATOR)
            kept = generator or code.co_name in DRAIN
            seen[frame] = entry = [names.get(code, code.co_name), kept]
            order.append(entry)
        elif event == "return" and inspect.isgenerator(arg):
            seen[frame][1] = True  # a plain function handing one on

    sys.setprofile(profile)
    process = runner.env.process(fetcher.fetch(request))
    runner.env.run()
    sys.setprofile(None)
    assert process.value.status < 400, (path, process.value)
    return [name for name, kept in order if kept]


no_cache = client(Scenario.NO_CACHE)
retrying = client(Scenario.NO_CACHE, retry=RetryPolicy())
classic = client(Scenario.CLASSIC_CDN)
speed_kit = client(Scenario.SPEED_KIT)
# Warm-up: one request of each kind on another URL, so the measured one
# finds the sketch fresh and every lazily built helper built.
for stack, path in [
    (no_cache, "/product/p2"),
    (retrying, "/product/p2"),
    (classic, "/product/p2"),
    (speed_kit, "/static/style.css"),
    (speed_kit, "/api/blocks/cart"),
]:
    frames(stack, path)
report = {
    "no-cache baseline": frames(no_cache, "/product/p1"),
    "no-cache baseline, retry policy": frames(retrying, "/product/p1"),
    "credentialed request at the edge": frames(classic, "/product/p1"),
    "user block": frames(speed_kit, "/api/blocks/cart"),
    "pass-through": frames(speed_kit, "/checkout"),
    "accelerated fill": frames(speed_kit, "/static/app.js"),
    "accelerated hit": frames(speed_kit, "/static/app.js"),
}
print(json.dumps(report))
"""

#: The origin exchange with no retry policy is the attempt itself.
ORIGIN = [
    "Transport._origin_exchange",
    "Transport._origin_attempt",
    "Transport.charge",
    "CacheBackend.drain_latency",
]
#: The browser cache's hand-on and its lookup's drain.
BROWSER = [
    "BrowserClient.fetch",
    "BrowserClient._fetch_inner",
    "Transport.charge",
    "CacheBackend.drain_latency",
    "BrowserClient._transport_fetch",
]
#: The browser cache's drain after it admits the answer.
ADMIT = ["Transport.charge", "CacheBackend.drain_latency"]

EXPECTED = {
    "no-cache baseline": ["NoCacheClient.fetch", "Transport.fetch_direct", *ORIGIN],
    "no-cache baseline, retry policy": [
        "NoCacheClient.fetch",
        "Transport.fetch_direct",
        "Transport._origin_exchange",
        "Transport._origin_exchange_inner",
        *ORIGIN[1:],
    ],
    "credentialed request at the edge": [
        *BROWSER,
        "Transport.fetch_via_cdn",
        *ORIGIN,
        "Transport.charge",
        "CacheBackend.drain_latency",
        *ADMIT,
    ],
    "user block": [
        "ServiceWorkerProxy.fetch",
        "ServiceWorkerProxy._fetch_routed",
        "ServiceWorkerProxy._fetch_user_block",
        *BROWSER,
        "Transport.fetch_direct",
        *ORIGIN,
        *ADMIT,
    ],
    "pass-through": [
        "ServiceWorkerProxy.fetch",
        "ServiceWorkerProxy._fetch_routed",
        *BROWSER,
        "Transport.fetch_direct",
        *ORIGIN,
        *ADMIT,
    ],
    "accelerated fill": [
        "ServiceWorkerProxy.fetch",
        "ServiceWorkerProxy._fetch_routed",
        "ServiceWorkerProxy._fetch_accelerated",
        "CacheBackend.drain_latency",
        "Transport.fetch_via_cdn",
        "Transport._fill_from_origin",
        *ORIGIN,
        "Transport.charge",
        "CacheBackend.drain_latency",
        "Transport.charge",
        "CacheBackend.drain_latency",
    ],
    "accelerated hit": [
        "ServiceWorkerProxy.fetch",
        "ServiceWorkerProxy._fetch_routed",
        "ServiceWorkerProxy._fetch_accelerated",
        "CacheBackend.drain_latency",
    ],
}


def request_frames(root):
    """Each request kind's hand-on and drain frames, in the package at
    ``root``."""
    done = subprocess.run(
        [sys.executable, "-c", FRAMES_PROBE, str(root)],
        cwd=root.parent,
        env={**os.environ, "PYTHONPATH": str(root.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def mutant_tree(tmp_path, edits):
    """A copy of the package with ``{file: [(honest, mutated), ...]}``
    applied, each honest text found exactly once."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    for name, pairs in edits.items():
        path = tree / name
        source = path.read_text(encoding="utf-8")
        for honest, mutated in pairs:
            assert source.count(honest) == 1, (name, honest)
            source = source.replace(honest, mutated)
        path.write_text(source, encoding="utf-8")
    return tree


def changed(found):
    return sorted(kind for kind in EXPECTED if found[kind] != EXPECTED[kind])


def test_each_request_crosses_the_frames_the_table_names():
    assert request_frames(SRC) == EXPECTED


PASS_THROUGH_WRAPPER = '''

class PassThrough(Fetcher):
    """Hands every request to the client it wraps."""

    def __init__(self, inner: Fetcher) -> None:
        self.inner = inner
        self.transport = inner.transport
        self.request_headers = inner.request_headers

    def fetch(self, request: Request) -> Generator:
        return self.inner.fetch(request)
'''


def test_the_gate_trips_on_a_pass_through_wrapper_around_the_client(tmp_path):
    """The mutant: the runner puts a forwarding ``Fetcher`` back between
    the page and the client, as the cookie jar was."""
    tree = mutant_tree(
        tmp_path,
        {
            "baselines/clients.py": [
                (
                    "return self.transport.fetch_direct(self.node, request)\n",
                    "return self.transport.fetch_direct(self.node, request)\n"
                    + PASS_THROUGH_WRAPPER,
                ),
            ],
            "harness/runner.py": [
                (
                    "from repro.baselines.clients import NoCacheClient",
                    "from repro.baselines.clients import NoCacheClient, PassThrough",
                ),
                (
                    "                fetcher=client,",
                    "                fetcher=PassThrough(client),",
                ),
            ],
        },
    )
    found = request_frames(tree)
    assert changed(found) == sorted(EXPECTED)
    assert all(found[kind][0] == "PassThrough.fetch" for kind in EXPECTED)


def test_the_gate_trips_on_a_no_policy_exchange_through_the_retry_loop(tmp_path):
    """The mutant: with no retry policy the exchange runs
    ``_origin_exchange_inner`` again, which only forwards there."""
    tree = mutant_tree(
        tmp_path,
        {
            "browser/transport.py": [
                (
                    "self._origin_attempt if self.retry is None else "
                    "self._origin_exchange_inner",
                    "self._origin_exchange_inner",
                ),
                (
                    "        policy = self.retry\n        deadline",
                    "        policy = self.retry\n"
                    "        if policy is None:\n"
                    "            response = yield from self._origin_attempt(\n"
                    "                from_node, request, span\n"
                    "            )\n"
                    "            return response\n"
                    "        deadline",
                ),
            ],
        },
    )
    found = request_frames(tree)
    assert changed(found) == sorted(
        set(EXPECTED) - {"accelerated hit", "no-cache baseline, retry policy"}
    )
    assert "Transport._origin_exchange_inner" in found["no-cache baseline"]


def test_the_gate_trips_on_a_store_level_drain_forwarder(tmp_path):
    """The mutant: the worker drains its cache through a ``CacheStore``
    method that only hands the engine's number on."""
    tree = mutant_tree(
        tmp_path,
        {
            "cdn/cache.py": [
                (
                    "    # -- core operations",
                    "    def drain_latency(self, concurrent=0.0):\n"
                    "        return self.backend.drain_latency(concurrent)\n\n"
                    "    # -- core operations",
                ),
            ],
            "speedkit/worker.py": [
                (
                    "lag = cache.store.backend.drain_latency()",
                    "lag = cache.store.drain_latency()",
                ),
            ],
        },
    )
    found = request_frames(tree)
    assert changed(found) == ["accelerated fill", "accelerated hit"]
    assert "CacheStore.drain_latency" in found["accelerated hit"]
