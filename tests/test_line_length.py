"""No line of the package's source is longer than 100 characters, and no
module imports a name it never uses.

These tests read every module under ``src/spokesense`` and fail on any line
over the limit, naming the file and line number, and on any imported name
that the module's syntax tree never reads, so neither needs checking by
hand.  ``__init__`` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spokesense"
MAX_LINE = 100


def long_lines(source: str) -> list[str]:
    """Line-numbered lines of ``source`` longer than MAX_LINE characters."""
    return [
        f"line {number}: {len(line)} characters"
        for number, line in enumerate(source.splitlines(), start=1)
        if len(line) > MAX_LINE
    ]


def test_package_lines_fit_the_limit():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: long_lines(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("x" * 100 + "\n", []),
        ("x" * 101 + "\n", ["line 1: 101 characters"]),
        ("ok\n" + "é" * 101, ["line 2: 101 characters"]),
        ("", []),
    ],
)
def test_detector_counts_characters_per_line(source, expected):
    assert long_lines(source) == expected


def unused_imports(source: str) -> list[str]:
    """Line-numbered names bound by an import in ``source`` that no
    expression in it reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("import os\nos.sep\n", []),
        ("import os\n", ["line 1: os"]),
        ("import numpy as np\nimport os.path\nnp.pi, os.sep\n", []),
        ("from typing import Iterable, Sequence\nx: Sequence\n", ["line 1: Iterable"]),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from . import x\n    return 1\n", ["line 2: x"]),
    ],
)
def test_unused_import_detector(source, expected):
    assert unused_imports(source) == expected
