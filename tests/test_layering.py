"""Which package may import which: the layering the stack relies on.

``repro.http`` is the vocabulary every tier speaks, so it depends on
nothing else in the repo; the cache, storage and observability layers
sit below the subsystems that use them, so none of them may reach
*up* to guard itself with a constant a subsystem owns.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PACKAGES = sorted(path.name for path in SRC.iterdir() if path.is_dir())
SUBSYSTEMS = {"overload", "txn", "harness", "speedkit", "browser"}

#: package -> the ``repro.*`` packages it must not import.
FORBIDDEN = {
    "http": set(PACKAGES) - {"http"},
    "cdn": SUBSYSTEMS,
    "storage": SUBSYSTEMS,
    "obs": SUBSYSTEMS,
    # The origin derives every change's affected set and publishes it;
    # the invalidation pipeline consumes it (and imports the origin).
    "origin": {"invalidation"},
}


def imports_in(source):
    """``repro.<x>`` packages ``source`` imports, function-level and
    ``TYPE_CHECKING`` imports included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def imported_packages(package):
    """``repro.<x>`` packages imported anywhere under ``package``."""
    found = {}
    for path in sorted((SRC / package).rglob("*.py")):
        for name in imports_in(path.read_text(encoding="utf-8")):
            found.setdefault(name, path.relative_to(SRC))
    return found


def test_the_walk_sees_real_imports():
    assert "http" in imported_packages("cdn")
    assert SUBSYSTEMS <= set(PACKAGES)


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_no_upward_imports(package):
    found = imported_packages(package)
    upward = {
        name: str(where)
        for name, where in found.items()
        if name in FORBIDDEN[package]
    }
    assert not upward, f"repro.{package} imports upward: {upward}"


@pytest.mark.parametrize(
    "reintroduced",
    [
        "from repro.invalidation.matcher import QueryMatcher",
        "from repro.invalidation import QueryMatcher",
        "def _on_change(self, event):\n"
        "    from repro.invalidation.pipeline import InvalidationPipeline",
    ],
)
def test_the_origin_gate_trips_on_importing_invalidation(reintroduced):
    assert imports_in(reintroduced) & FORBIDDEN["origin"]


# -- no capability probing -------------------------------------------------
#
# A collaborator's surface is declared on its base type (with do-nothing
# defaults where a part is optional) and called directly. Asking an
# object "do you have this method?" makes the surface something the next
# implementer can silently lack.

#: file -> (attribute literals it may probe, why that is not a probe of
#: a collaborator's surface). At most three entries.
PROBE_ALLOWED = {
    "sim/environment.py": (
        {"defused"},
        "Event.defused is a slot left unset on purpose: only a caller "
        "that opts a failed event out of surfacing ever assigns it",
    ),
    "harness/results.py": (
        {"metadata"},
        "reads dataclass Field metadata off a class attribute that is a "
        "plain default when the field was declared without ledger(...)",
    ),
    "gdpr/matching.py": (
        {"__dict__"},
        "reflection over arbitrary stored values: the definition of what "
        "an erase can reach, not a question about a collaborator",
    ),
}


def probes_in(source):
    """``(line, what)`` of every probing idiom in ``source``:
    ``getattr(obj, "<literal>", <default>)``, ``def __getattr__``, and
    an ``except TypeError`` whose whole body is ``pass``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            found.append((node.lineno, node.args[1].value))
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__getattr__"
        ):
            found.append((node.lineno, "def __getattr__"))
        elif (
            isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "TypeError"
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)
        ):
            found.append((node.lineno, "except TypeError: pass"))
    return found


def test_no_capability_probing():
    assert len(PROBE_ALLOWED) <= 3
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        allowed, _reason = PROBE_ALLOWED.get(relative, (set(), ""))
        offenders += [
            f"{relative}:{line}: {what}"
            for line, what in probes_in(path.read_text(encoding="utf-8"))
            if what not in allowed
        ]
    assert not offenders, "capability probes in src/repro: " + "; ".join(
        offenders
    )


def test_every_allowed_probe_still_exists():
    for relative, (allowed, reason) in PROBE_ALLOWED.items():
        assert reason
        source = (SRC / relative).read_text(encoding="utf-8")
        assert allowed == {what for _, what in probes_in(source)}, relative


@pytest.mark.parametrize(
    "reintroduced",
    [
        'loses = getattr(self.faults, "loses_message", None)',
        "def __getattr__(self, name):\n    return getattr(self.inner, name)",
        "try:\n    site = factory(catalog, store_backend=b)\n"
        "except TypeError:\n    pass",
    ],
)
def test_the_gate_trips_on_each_idiom(reintroduced):
    assert probes_in(reintroduced)


def test_the_gate_lets_honest_code_through():
    honest = """
def f(self, knob, a, b):
    value = getattr(self, knob)
    memo = getattr(value, _MEMO, _NO_SLOT)
    try:
        return a < b
    except TypeError:
        return False
"""
    assert not probes_in(honest)


# -- the runner counts nothing -----------------------------------------------
#
# A count is kept once, in the registry counter the subsystem that sees
# the event writes, and ``RunResult`` restates it at end of run. The
# runner therefore never bumps a ledger field on the way: outside the
# functions that restate and stamp (``_finalize*``, ``run``) nothing in
# ``harness/runner.py`` may add to, or store into, anything reached
# through ``result`` / ``self.result``.

RUNNER = SRC / "harness" / "runner.py"


def _functions(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _hangs_off_result(target):
    while isinstance(target, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(target, ast.Attribute) and target.attr == "result":
            return True
        target = target.func if isinstance(target, ast.Call) else target.value
    return isinstance(target, ast.Name) and target.id == "result"


def ledger_bumps_in(source):
    """``(line, target)`` of every by-hand ledger bump in ``source``:
    an augmented assignment, or an assignment through a subscript,
    whose target hangs off ``result`` / ``self.result``."""
    found = []
    for function in _functions(source):
        if function.name == "run" or function.name.startswith("_finalize"):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [
                    target
                    for target in node.targets
                    if isinstance(target, ast.Subscript)
                ]
            else:
                continue
            found += [
                (node.lineno, ast.unparse(target))
                for target in targets
                if _hangs_off_result(target)
            ]
    return found


def test_the_runner_counts_nothing():
    source = RUNNER.read_text(encoding="utf-8")
    assert "self.result" in source  # the walk reads the real runner
    assert ledger_bumps_in(source) == []


def test_finalize_visits_neither_client_stacks_nor_read_records():
    """What lets a client stack go after its last event: end of run
    publishes a few owner attributes and restates the registry through
    ``RunResult.over``, never reading per-user state."""
    visited = {
        node.attr
        for function in _functions(RUNNER.read_text(encoding="utf-8"))
        if function.name.startswith("_finalize")
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
    }
    assert "over" in visited
    assert not visited & {"_stacks", "records"}


def test_there_is_one_merge_and_it_is_the_registrys():
    """A sharded result is ``RunResult.over`` the merged registry: no
    field-by-field fold of results may come back beside it."""
    results = ast.parse(
        (SRC / "harness" / "results.py").read_text(encoding="utf-8")
    )
    (run_result,) = (
        node
        for node in ast.walk(results)
        if isinstance(node, ast.ClassDef) and node.name == "RunResult"
    )
    methods = {
        node.name
        for node in run_result.body
        if isinstance(node, ast.FunctionDef)
    }
    assert "over" in methods and "merge" not in methods
    for path in SRC.rglob("*.py"):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        }
        assert "MERGE_RULES" not in names, path


@pytest.mark.parametrize(
    "reintroduced",
    [
        "self.result.erasures += 1",
        "result = self.result\nresult.txns += 1",
        "self.result.erasure_removed += report.entries_removed",
        "self.result.served_by_layer[layer] = "
        "self.result.served_by_layer.get(layer, 0) + 1",
        "self.result.served_by_kind.setdefault(layer, {})[kind] = 1",
    ],
)
def test_the_counting_gate_trips_on_a_by_hand_bump(reintroduced):
    body = "\n".join(f"        {line}" for line in reintroduced.split("\n"))
    source = f"class R:\n    def _handle_gdpr(self, serve, event):\n{body}\n"
    assert ledger_bumps_in(source)


def test_the_counting_gate_lets_restating_and_stamping_through():
    honest = """
class R:
    def run(self):
        self.result.wall_seconds = time.perf_counter() - started
    def _finalize(self):
        self.metrics.counter("origin.requests").inc(self.server.requests_served)
        self.result = RunResult.over(self.spec.name, self.metrics, records)
    def _record_page_load(self, result):
        self._plt.observe(result.plt)
        self.metrics.counter("personalization.checks").inc()
        totals[result.kind] = 1
"""
    assert not ledger_bumps_in(honest)


# -- messages are values -------------------------------------------------------
#
# A header map is never edited once a message carries it and a
# ``Response`` is never edited once built: a cache stores the response
# it is given and serves it by reference (``entry.response.served(by)``),
# so an edit anywhere would show through every holder. The map refuses
# edits at run time (``FrozenHeadersError``); this scan keeps the idioms
# out of the source, including the attribute stores no run-time check
# covers (a ``frozen=True`` message would pay ``object.__setattr__`` per
# field on every hop). Variants are built: ``dataclasses.replace``,
# ``mark``, ``with_header``. The two fields a hop does rebind —
# ``Request.trace`` and the worker's ``scrubbed.url`` on the scrubber's
# own fresh request — are not message *content* and are not listed. The
# listed names are refused on any object, not only on messages (the
# scan has no types): nothing else in ``src/repro`` assigns them.

MESSAGES = "http/messages.py"
MESSAGE_FIELDS = {
    "status",
    "headers",
    "body",
    "version",
    "served_by",
    "generated_at",
}
MAP_EDITS = {"pop", "update", "setdefault"}
#: ``.copy()`` receivers in the cache tiers, by file: requests only.
REQUEST_COPIES = {
    "speedkit/worker.py": {"scrubbed"},
}


def message_edits_in(source, relative):
    """``(line, what)`` of every message-editing idiom in ``source``
    (the file ``relative`` under ``src/repro``)."""
    found = []
    package = relative.split("/")[0]
    for node in ast.walk(ast.parse(source)):
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if (
            stored
            and isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "headers"
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif (
            stored
            and isinstance(node, ast.Attribute)
            and node.attr in MESSAGE_FIELDS
            and relative != MESSAGES
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                node.func.attr in MAP_EDITS
                and isinstance(receiver, ast.Attribute)
                and receiver.attr == "headers"
            ) or (
                node.func.attr == "copy"
                and package in {"cdn", "speedkit"}
                and ast.unparse(receiver)
                not in REQUEST_COPIES.get(relative, set())
            ):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_messages_are_values():
    from repro.http import URL, Request, Response

    assert not hasattr(Response, "copy")
    offenders = [
        f"{relative}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for relative in [path.relative_to(SRC).as_posix()]
        for line, what in message_edits_in(
            path.read_text(encoding="utf-8"), relative
        )
    ]
    assert not offenders, "message edits in src/repro: " + "; ".join(offenders)
    # The walk reads the real tree: the request copies it lets through
    # exist, and share their header map.
    for relative, receivers in REQUEST_COPIES.items():
        source = (SRC / relative).read_text(encoding="utf-8")
        assert all(f"{name}.copy()" in source for name in receivers), relative
    request = Request.get(URL.parse("/p"))
    assert request.copy().headers is request.headers


@pytest.mark.parametrize(
    "reintroduced, relative",
    [
        ('response.headers["Age"] = "5"', "browser/client.py"),
        ('del stored.headers["ETag"]', "http/messages.py"),
        ('refreshed.headers.pop("ETag", None)', "cdn/httpcache.py"),
        ('response.headers.update({"X-Hop": "edge"})', "cdn/httpcache.py"),
        ('outgoing.headers.setdefault("Cookie", jar)', "speedkit/worker.py"),
        ("response.served_by = self.name", "cdn/httpcache.py"),
        ("refreshed.generated_at = not_modified.generated_at", "cdn/httpcache.py"),
        ("assembled.body, assembled.version = body, 2", "speedkit/blocks.py"),
        ("read.response.status = Status.OK", "txn/coordinator.py"),
        ("request.headers = Headers()", "baselines/clients.py"),
        ("response = entry.response.copy()", "cdn/httpcache.py"),
        ("return mark(cached.copy(), Degraded.OFFLINE)", "speedkit/worker.py"),
    ],
)
def test_the_values_gate_trips_on_each_idiom(reintroduced, relative):
    assert message_edits_in(reintroduced, relative)


def test_the_values_gate_lets_building_and_rebinding_through():
    honest = """
def f(self, request, entry, span, read, kept):
    request.trace = span.context
    scrubbed = scrubbed.copy()
    scrubbed.url = _segment_variant(scrubbed.url, segment)
    read.response = mark(read.response, Degraded.TXN_DOWNGRADE, level)
    headers = {}
    headers["ETag"] = entry.response.etag
    kept[name] = value
    del kept[name]
    outgoing = request.with_header("Cookie", jar)
    refreshed = replace(entry.response, headers=Headers(headers))
    state = "idle" if refreshed.status == Status.OK else "busy"
    return entry.response.served(self.name)
"""
    assert not message_edits_in(honest, "speedkit/worker.py")


# -- one affected set per change ---------------------------------------------
#
# A document change is resolved to the resources it affects once, in
# ``OriginServer._on_change``: document dependents united with the query
# matches. Versions, renditions, the Cache Sketch, the TTL estimator and
# the CDN purge all consume that one set (``change_observers``), so no
# second derivation can drift from the versions the checker judges by.
# ``PartitionedMatcher`` (E14's grid) delegates to per-partition
# matchers and is exempt by name. The store has one listener, the
# origin; a store subscription takes one listener, where a matcher's
# takes a key and a query, so the scan tells them apart by arity.

#: Methods that derive (part of) an affected set.
DERIVATIONS = {"dependents_of", "affected_resources"}
#: The one place they are called: (file, qualified function).
DERIVATION_SITE = ("origin/server.py", "OriginServer._on_change")
STORE_SUBSCRIPTION_SITE = ("origin/server.py", "OriginServer.__init__")
EXEMPT = "PartitionedMatcher"


def _calls_in(source, relative, wanted):
    """``(method, (relative, qualified function))`` of every call
    ``wanted(call)`` accepts, outside the exempt class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and EXEMPT not in scope
                and wanted(child)
            ):
                found.append((child.func.attr, (relative, ".".join(scope))))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def derivations_in(source, relative):
    return _calls_in(source, relative, lambda call: call.func.attr in DERIVATIONS)


def store_subscriptions_in(source, relative):
    return _calls_in(
        source,
        relative,
        lambda call: call.func.attr == "subscribe"
        and len(call.args) + len(call.keywords) == 1,
    )


def _tree_calls(scan):
    return sorted(
        found
        for path in sorted(SRC.rglob("*.py"))
        for found in scan(
            path.read_text(encoding="utf-8"), path.relative_to(SRC).as_posix()
        )
    )


def test_a_change_becomes_its_affected_set_once():
    assert _tree_calls(derivations_in) == [
        (name, DERIVATION_SITE) for name in sorted(DERIVATIONS)
    ]


def test_the_store_has_one_listener():
    assert _tree_calls(store_subscriptions_in) == [
        ("subscribe", STORE_SUBSCRIPTION_SITE)
    ]


def _in_pipeline(reintroduced):
    body = "\n".join(f"        {line}" for line in reintroduced.split("\n"))
    return f"class InvalidationPipeline:\n    def _on_change(self, event):\n{body}\n"


@pytest.mark.parametrize(
    "reintroduced",
    [
        "affected = self.versions.dependents_of(event.key)",
        "affected |= self.matcher.affected_resources(event)",
        "return self.server.versions.dependents_of(event.key) | (\n"
        "    self.server._matcher.affected_resources(event)\n)",
    ],
)
def test_the_derivation_gate_trips_on_a_second_derivation(reintroduced):
    found = derivations_in(_in_pipeline(reintroduced), "invalidation/pipeline.py")
    assert found and all(where != DERIVATION_SITE for _, where in found)


@pytest.mark.parametrize(
    "reintroduced",
    [
        "server.site.store.subscribe(self._on_change)",
        "store = server.site.store\nstore.subscribe(listener=self._on_change)",
    ],
)
def test_the_listener_gate_trips_on_a_second_store_subscription(reintroduced):
    found = store_subscriptions_in(
        _in_pipeline(reintroduced), "invalidation/pipeline.py"
    )
    assert found and all(where != STORE_SUBSCRIPTION_SITE for _, where in found)


def test_the_affected_set_gates_let_the_grid_and_matchers_through():
    honest = """
class PartitionedMatcher:
    def affected_resources(self, event):
        return matcher.affected_resources(event)
class OriginServer:
    def _resolve_reads(self, version_key, query):
        self._matcher.subscribe(version_key, query)
"""
    assert derivations_in(honest, "invalidation/partitioned.py") == []
    assert store_subscriptions_in(honest, "origin/server.py") == []


# -- the runtime is the standard library -------------------------------------
#
# The Cache Sketch is its packed wire bytes (``bytes`` / ``bytearray``),
# which was numpy's one use: ``src/repro`` imports only the standard
# library and itself, and importing the CLI and the harness leaves numpy
# out of ``sys.modules``. Each mutant re-adds ``import numpy`` to a copy
# of the tree; both checks must catch it.

RUNTIME_OK = set(sys.stdlib_module_names) | {"repro", "__future__"}
NUMPY_MUTANTS = ["sketch/bloom.py", "sketch/counting.py", "harness/runner.py"]


def foreign_imports_in(source):
    """Top-level modules ``source`` imports from outside the standard
    library and ``repro``, function-level imports included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {name.split(".")[0] for name in names} - RUNTIME_OK
    return found


def foreign_imports_under(root):
    return {
        path.relative_to(root).as_posix(): found
        for path in sorted(root.rglob("*.py"))
        for found in [foreign_imports_in(path.read_text(encoding="utf-8"))]
        if found
    }


def numpy_loaded_by_importing(root):
    """Whether ``import repro.cli, repro.harness`` from the package at
    ``root`` puts numpy in ``sys.modules``. An empty stand-in ``numpy``
    shadows any installed one, so the check needs no numpy installed."""
    stand_in = root.parent / "stand-in"
    (stand_in / "numpy").mkdir(parents=True, exist_ok=True)
    (stand_in / "numpy" / "__init__.py").touch()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(stand_in), str(root.parent)]),
    }
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.harness; "
            "assert repro.__file__.startswith(sys.argv[1]), repro.__file__; "
            "print('numpy' in sys.modules)",
            str(root),
        ],
        cwd=root.parent,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split() == ["True"]


def test_src_imports_only_the_standard_library():
    assert foreign_imports_under(SRC) == {}


def test_importing_the_cli_and_harness_leaves_numpy_out(tmp_path):
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    assert not numpy_loaded_by_importing(tree)


@pytest.mark.parametrize("relative", NUMPY_MUTANTS)
def test_the_runtime_gates_trip_on_a_re_added_numpy_import(tmp_path, relative):
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / relative, "a", encoding="utf-8") as module:
        module.write("\nimport numpy as np\n")
    assert foreign_imports_under(tree) == {relative: {"numpy"}}
    assert numpy_loaded_by_importing(tree)


@pytest.mark.parametrize(
    "reintroduced",
    ["from numpy import packbits", "def f():\n    import numpy.linalg"],
)
def test_the_import_gate_sees_every_spelling(reintroduced):
    assert foreign_imports_in(reintroduced) == {"numpy"}


# -- per-record values are packed ----------------------------------------------
#
# The values a replay holds one of per user, per event or per sample are
# packed: ``User`` and every trace event are slotted (no per-instance
# ``__dict__``), and a ``Histogram`` keeps its samples as C doubles in an
# ``array``. Checked in a fresh interpreter over a source tree, so a
# mutant of the real files can be shown to trip it.

PACKED_PROBE = """
import sys
from array import array

import repro
from repro.sim.metrics import Histogram
from repro.workload.trace import TraceEvent
from repro.workload.users import User

assert repro.__file__.startswith(sys.argv[1]), repro.__file__


def family(cls):
    # Only the classes their modules export: ``dataclass(slots=True)``
    # replaces a class, and the draft it replaced can outlive it.
    if getattr(sys.modules[cls.__module__], cls.__name__) is cls:
        yield cls
    for sub in cls.__subclasses__():
        yield from family(sub)


loose = [
    cls.__name__ for cls in family(TraceEvent) if hasattr(cls(at=0.0), "__dict__")
]
if hasattr(User("u0", "gold", "de", "cable", True, True), "__dict__"):
    loose.append("User")
histogram = Histogram("h")
histogram.extend([2.0, 1.0])
histogram.percentile(50)
if type(histogram._values) is not array:
    loose.append("Histogram")
print(len(list(family(TraceEvent))), *sorted(loose))
"""


def unpacked_records(root):
    """How many trace event classes the package at ``root`` has, then
    the per-record classes among them (and ``User``, ``Histogram``)
    that are not packed."""
    done = subprocess.run(
        [sys.executable, "-c", PACKED_PROBE, str(root)],
        cwd=root.parent,
        env={**os.environ, "PYTHONPATH": str(root.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    count, *loose = done.stdout.split()
    return int(count), loose


def test_per_record_values_are_packed():
    count, loose = unpacked_records(SRC)
    assert count == 8
    assert loose == []


def test_the_packing_gate_trips_on_an_event_class_with_a_dict(tmp_path):
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    trace = tree / "workload" / "trace.py"
    source = trace.read_text(encoding="utf-8")
    packed = "@dataclass(frozen=True, slots=True)\nclass PageView("
    assert packed in source
    trace.write_text(
        source.replace(packed, "@dataclass(frozen=True)\nclass PageView("),
        encoding="utf-8",
    )
    assert unpacked_records(tree) == (8, ["PageView"])


# -- one distribution collector ---------------------------------------------
#
# A reported percentile has one definition. Exactly one class in
# ``src/repro`` answers ``percentile`` (or ``quantile``), no function
# anywhere else re-derives one, and the registry builds distributions
# through one factory, ``histogram``.


def repro_sources():
    """``{relative path: source}`` of every module under ``src/repro``."""
    return {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


def _percentile_functions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _percentile_functions(child, prefix)
            continue
        qualified = f"{prefix}{child.name}"
        if isinstance(child, ast.FunctionDef) and child.name.startswith(
            ("percentile", "quantile")
        ):
            yield qualified
        yield from _percentile_functions(child, f"{qualified}.")


def percentile_definitions(sources):
    """``path:qualified.name`` of every function, method or nested
    helper whose name starts with ``percentile`` or ``quantile``."""
    return sorted(
        f"{relative}:{qualified}"
        for relative, source in sources.items()
        for qualified in _percentile_functions(ast.parse(source), "")
    )


def distribution_factories(sources):
    """The ``MetricRegistry`` methods that build a collector which
    answers percentiles."""
    distributions = {
        definition.split(":")[1].split(".")[0]
        for definition in percentile_definitions(sources)
    }
    tree = ast.parse(sources["sim/metrics.py"])
    (registry,) = (
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "MetricRegistry"
    )
    return sorted(
        method.name
        for method in registry.body
        if isinstance(method, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in distributions
            for node in ast.walk(method)
        )
    )


def test_one_percentile_definition():
    assert percentile_definitions(repro_sources()) == [
        "sim/metrics.py:Histogram.percentile"
    ]


def test_the_registry_has_one_distribution_factory():
    assert distribution_factories(repro_sources()) == ["histogram"]


SECOND_PERCENTILE_CLASS = """
class QuantileSketch:
    def __init__(self):
        self._values = []

    def observe(self, value):
        self._values.append(value)

    def quantile(self, q):
        ordered = sorted(self._values)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
"""

REGISTRY_SKETCH = """
    def sketch(self, name: str) -> QuantileSketch:
        sketch = self._sketches.get(name)
        if sketch is None:
            sketch = self._sketches[name] = QuantileSketch()
        return sketch

"""


def test_the_distribution_gates_trip_on_a_re_added_sketch():
    sources = repro_sources()
    sources["sim/quantile.py"] = SECOND_PERCENTILE_CLASS
    anchor = "    def series(self, name: str) -> TimeSeries:\n"
    assert anchor in sources["sim/metrics.py"]
    sources["sim/metrics.py"] = sources["sim/metrics.py"].replace(
        anchor, REGISTRY_SKETCH + anchor
    )
    assert percentile_definitions(sources) == [
        "sim/metrics.py:Histogram.percentile",
        "sim/quantile.py:QuantileSketch.quantile",
    ]
    assert distribution_factories(sources) == ["histogram", "sketch"]


def test_the_percentile_gate_trips_on_a_private_copy_of_the_formula():
    sources = repro_sources()
    anchor = "    rows = []\n    for name, values in series.items():\n"
    assert anchor in sources["harness/plots.py"]
    sources["harness/plots.py"] = sources["harness/plots.py"].replace(
        anchor,
        "    def percentile_of(ordered, q):\n"
        "        rank = (q / 100.0) * (len(ordered) - 1)\n"
        "        return ordered[round(rank)]\n\n" + anchor,
    )
    found = percentile_definitions(sources)
    assert "harness/plots.py:cdf_table.percentile_of" in found


# -- only the kernel sets the clock ------------------------------------------
#
# ``Environment.now`` is a plain attribute, read on every hop of the
# request path without a property call. Nothing stops a module from
# assigning it, so this gate does: ``.now`` is assigned (by statement
# or by ``setattr``) only in ``sim/environment.py``.

CLOCK_OWNER = "sim/environment.py"


def _assigned_attributes(target):
    if isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_attributes(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_attributes(target.value)


def now_assignments(sources):
    """``path:line`` of every assignment to an attribute ``now``."""
    found = []
    for relative, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            ):
                found.append(f"{relative}:{node.lineno}")
                continue
            else:
                continue
            if any(
                attr == "now"
                for target in targets
                for attr in _assigned_attributes(target)
            ):
                found.append(f"{relative}:{node.lineno}")
    return sorted(found)


def test_only_the_kernel_assigns_the_clock():
    found = now_assignments(repro_sources())
    assert found, "the kernel's own assignments went unseen"
    assert [where for where in found if not where.startswith(CLOCK_OWNER)] == []


@pytest.mark.parametrize(
    "assignment",
    [
        "self.env.now = event.at",
        "self.env.now += delay",
        "self.env.now, seen = event.at, True",
        "setattr(self.env, 'now', event.at)",
    ],
)
def test_the_clock_gate_trips_on_an_assignment_outside_the_kernel(assignment):
    sources = repro_sources()
    anchor = "            delay = event.at - self.env.now\n"
    assert anchor in sources["harness/runner.py"]
    mutant = sources["harness/runner.py"].replace(
        anchor, anchor + f"            {assignment}\n"
    )
    sources["harness/runner.py"] = mutant
    line = mutant.splitlines().index(f"            {assignment}") + 1
    found = now_assignments(sources)
    assert [where for where in found if not where.startswith(CLOCK_OWNER)] == [
        f"harness/runner.py:{line}"
    ]
