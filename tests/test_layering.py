"""Which package may import which: the layering the stack relies on.

``repro.http`` is the vocabulary every tier speaks, so it depends on
nothing else in the repo; the cache, storage and observability layers
sit below the subsystems that use them, so none of them may reach
*up* to guard itself with a constant a subsystem owns.
"""

import ast
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
}


def imported_packages(package):
    """``repro.<x>`` packages imported anywhere under ``package``,
    function-level and ``TYPE_CHECKING`` imports included."""
    found = {}
    for path in (SRC / package).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    found.setdefault(parts[1], path.relative_to(SRC))
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
        {"__dict__", "__slots__"},
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
