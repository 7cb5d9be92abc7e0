"""The part of CI's lint that can be checked offline.

CI runs ``ruff check`` and ``ruff format --check``; ``ruff`` is not in
the development image. Two of its rules need only the standard library
and are held here for ``src/repro``: no unused import (F401) outside a
package's ``__init__.py`` re-exports and ``__all__``, and no line over
88 columns (E501). Formatting proper is still checked in CI only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_COLUMNS = 88


def unused_imports(source):
    """``(line, name)`` of every import ``source`` binds and never
    reads: not as a name, not as the root of an attribute chain, not in
    ``__all__``, not in a string annotation."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    # Names quoted in ``__all__`` or in a string annotation count too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {
                inner.id
                for inner in ast.walk(quoted)
                if isinstance(inner, ast.Name)
            }
    return sorted(
        (line, name) for name, line in bound.items() if name not in read
    )


def test_the_scan_sees_an_unused_import_and_spares_a_used_one():
    source = (
        "import os\n"
        "import json as js\n"
        "from typing import List, Optional\n"
        "from a import exported, quoted\n"
        "__all__ = ['exported']\n"
        "def f(x: 'quoted') -> List[int]:\n"
        "    return js.loads(x)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Optional")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)


def test_no_line_over_88_columns():
    found = [
        f"{path.relative_to(SRC.parent)}:{number} {len(line)} columns"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > MAX_COLUMNS
    ]
    assert not found, "\n".join(found)
