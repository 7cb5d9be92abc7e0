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
