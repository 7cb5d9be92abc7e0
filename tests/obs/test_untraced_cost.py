"""Tracing off builds nothing on the request path.

An untraced replay of a small Speed Kit trace runs under ``cProfile``.
The request-path hops below must make no call whose only purpose is a
span: no ``str(url)`` for a span attribute, no ``response_attrs``, no
``Tracer.start``; and the per-resource ``_traced_fetch`` wrapper must
not run at all. The probe runs in a fresh interpreter over a source
tree, so a mutant of the real files can be shown to trip it. The
storm-side hops — the overload governor, PoP replication and the
invalidation pipeline — are held to the same rule on a governed,
replicated composition, and the probe reports that each of them ran.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

UNTRACED_PROBE = """
import cProfile
import json
import pstats
import random
import sys

import repro
from repro.browser.client import BrowserClient
from repro.browser.page import PageLoadEngine
from repro.browser.transport import Transport
from repro.cdn.replication import PopReplicator
from repro.coherence.client import SketchClient
from repro.faults import PROFILES, RetryPolicy
from repro.harness import Scenario, ScenarioSpec, SimulationRunner
from repro.http.url import URL
from repro.invalidation.pipeline import InvalidationPipeline
from repro.obs import Tracer, response_attrs
from repro.overload import OVERLOAD_PROFILES
from repro.overload.governor import NodeGovernor
from repro.speedkit.worker import ServiceWorkerProxy
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)

assert repro.__file__.startswith(sys.argv[1]), repro.__file__

HOPS = {
    PageLoadEngine: ("load", "_load_wave", "_traced_fetch"),
    ServiceWorkerProxy: (
        "fetch", "_fetch_routed", "_fetch_accelerated", "_revalidate",
    ),
    BrowserClient: ("fetch", "_fetch_inner"),
    Transport: (
        "fetch_via_cdn", "fetch_direct", "_origin_exchange", "_fill_from_origin",
    ),
    SimulationRunner: ("_handle_page_view",),
    SketchClient: ("fetch_once",),
    NodeGovernor: ("acquire",),
    PopReplicator: ("on_admit", "_deliver"),
    InvalidationPipeline: ("_process",),
}
#: The storm-side hops, each of which the probe must see run.
STORM_HOPS = (
    "NodeGovernor.acquire",
    "PopReplicator.on_admit",
    "InvalidationPipeline._process",
)
SPAN_ONLY = {
    "URL.__str__": URL.__str__,
    "response_attrs": response_attrs,
    "Tracer.start": Tracer.start,
}


def key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


hops = {
    key(getattr(cls, name)): f"{cls.__name__}.{name}"
    for cls, names in HOPS.items()
    for name in names
}

seed = 5
catalog = generate_catalog(CatalogConfig(n_products=15), random.Random(seed))
users = generate_users(
    UserPopulationConfig(n_users=6, consent_fraction=1.0), random.Random(seed + 1)
)
trace = WorkloadGenerator(
    catalog,
    users,
    WorkloadConfig(duration=240.0, session_rate=0.06, write_rate=0.06),
).generate(random.Random(seed + 2))
specs = [
    ScenarioSpec(scenario=Scenario.SPEED_KIT, delta=30.0, seed=seed),
    ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        fault_profile=PROFILES["chaos"],
        stale_if_error=60.0,
        retry=RetryPolicy(),
    ),
    ScenarioSpec(
        scenario=Scenario.SPEED_KIT,
        delta=30.0,
        seed=seed,
        replicate_pops=True,
        n_regions=3,
        overload_profile=OVERLOAD_PROFILES["flash-crowd"],
        admission=True,
    ),
]
found = set()
ran = set()
pages = 0
for spec in specs:
    profiler = cProfile.Profile()
    profiler.enable()
    result = SimulationRunner(spec, catalog, users, trace).run()
    profiler.disable()
    pages += result.page_views
    stats = pstats.Stats(profiler).stats
    for label, function in SPAN_ONLY.items():
        callers = stats.get(key(function), (0, 0, 0, 0, {}))[4]
        found |= {f"{hops[caller]} -> {label}" for caller in callers if caller in hops}
    if key(PageLoadEngine._traced_fetch) in stats:
        found.add("PageLoadEngine._traced_fetch ran")
    ran |= {label for hop, label in hops.items() if hop in stats}
missing = [hop for hop in STORM_HOPS if hop not in ran]
print(json.dumps({"pages": pages, "found": sorted(found), "missing": missing}))
"""


def span_work_untraced(root):
    """The span-only calls the request-path hops of the package at
    ``root`` make in an untraced replay, and how many pages it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", UNTRACED_PROBE, str(root)],
        cwd=root.parent,
        env={**os.environ, "PYTHONPATH": str(root.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["missing"] == [], report["missing"]
    return report["pages"], report["found"]


def test_the_untraced_request_path_builds_no_span():
    pages, found = span_work_untraced(SRC)
    assert pages > 0
    assert found == []


EAGER_REQUEST_SPAN = """\
                for request in requests:
                    self.tracer.start(
                        "request",
                        self.env.now,
                        parent=trace,
                        tier="client",
                        url=str(request.url),
                        wave=wave_index,
                        slot=slot,
                    )
"""


def test_the_untraced_gate_trips_on_an_eager_request_span(tmp_path):
    """The mutant: ``_load_wave`` starts each resource's ``request``
    span whether or not tracing is on, as it used to."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    page = tree / "browser" / "page.py"
    source = page.read_text(encoding="utf-8")
    anchor = "                traced = self.tracer.enabled\n"
    assert source.count(anchor) == 1
    page.write_text(
        source.replace(anchor, EAGER_REQUEST_SPAN + anchor), encoding="utf-8"
    )
    _, found = span_work_untraced(tree)
    assert found == [
        "PageLoadEngine._load_wave -> Tracer.start",
        "PageLoadEngine._load_wave -> URL.__str__",
    ]


EAGER_QUEUE_SPAN = """\
            self.tracer.start(
                "overload.queue",
                arrived,
                parent=parent,
                node=self.node,
                tier="overload",
                cls=label,
                n=weight,
                depth=len(self._waiting),
            )
"""


def test_the_untraced_gate_trips_on_an_eager_queue_span(tmp_path):
    """The mutant: ``NodeGovernor.acquire`` starts the ``overload.queue``
    span of every queued request whether or not tracing is on, as it
    used to."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    governor = tree / "overload" / "governor.py"
    source = governor.read_text(encoding="utf-8")
    anchor = "            yield slot_event  # release() hands the slot over\n"
    assert source.count(anchor) == 1
    governor.write_text(
        source.replace(anchor, EAGER_QUEUE_SPAN + anchor), encoding="utf-8"
    )
    _, found = span_work_untraced(tree)
    assert found == ["NodeGovernor.acquire -> Tracer.start"]
