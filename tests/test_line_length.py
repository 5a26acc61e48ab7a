"""No line of the package's source is longer than 100 characters, no
module imports a name it never uses, no private module-level name is left
that the package never reads, and the package root declares no name.

These tests read every module under ``src/spokesense`` and fail on any line
over the limit, naming the file and line number, on any imported name that
the module's syntax tree never reads, on any private function, class or
constant that no module's syntax tree reads, and on any statement of
``__init__`` other than its docstring and ``from . import <module>``, so none
of these needs checking by hand.  ``__init__`` is skipped by the import
check: it loads the package's modules without reading them.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` of each module-level private function, class or
    constant in ``sources`` (module name -> source) that no module reads.

    A module reads its own names by name, another module's through
    ``from .module import name`` (whose use the import check ensures) or as
    an attribute of the module bound by ``from . import module``.  Names
    are resolved per module, so one module's unread ``_f`` is found even
    where another module defines and reads an ``_f`` of its own.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for module, tree in trees.items():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        read.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    read.add((modules[node.value.id], node.attr))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and (module, name) not in read:
                    found.append(f"{module}:{node.lineno}: {name}")
    return found


def test_package_has_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert unread_private_names(sources) == []


@pytest.mark.parametrize(
    ("sources", "expected"),
    [
        ({"a": "def _f():\n    pass\n"}, ["a:1: _f"]),
        ({"a": "def _f():\n    pass\n\n\n_f()\n"}, []),
        ({"a": "x = 1\n_K: int = 2\n__all__ = []\n"}, ["a:2: _K"]),
        ({"a": "class _C:\n    pass\n", "b": "from .a import _C\n_C()\n"}, []),
        ({"a": "_K = 1\n", "b": "from . import a as m\nm._K\n"}, []),
        ({"a": "_K = 1\n", "b": "import a\na._K\n"}, ["a:1: _K"]),
        (
            {"a": "def _f():\n    pass\n", "b": "def _f():\n    pass\n\n\n_f()\n"},
            ["a:1: _f"],
        ),
    ],
)
def test_unread_private_name_detector(sources, expected):
    assert unread_private_names(sources) == expected


def root_declarations(source: str) -> list[str]:
    """Line-numbered statements of a package root other than its docstring,
    ``from __future__`` imports and unaliased ``from . import <module>``:
    each public name is declared once, in its module."""
    found = []
    for index, node in enumerate(ast.parse(source).body):
        docstring = (
            index == 0
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        )
        loads_modules = isinstance(node, ast.ImportFrom) and (
            node.module == "__future__"
            or (node.level == 1 and node.module is None and all(not a.asname for a in node.names))
        )
        if not (docstring or loads_modules):
            found.append(f"line {node.lineno}: {ast.unparse(node).splitlines()[0]}")
    return found


def test_package_root_only_imports_modules():
    assert root_declarations((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ('"""Doc."""\nfrom __future__ import annotations\nfrom . import a, b\n', []),
        ("", []),
        (
            '"""Doc."""\nfrom .a import f, g\n__version__ = "0.1.0"\n',
            ["line 2: from .a import f, g", "line 3: __version__ = \'0.1.0\'"],
        ),
        ("from . import a as b\n", ["line 1: from . import a as b"]),
        ("import os\n", ["line 1: import os"]),
        ('x = 1\n"""not a docstring"""\n', ["line 1: x = 1", "line 2: \'not a docstring\'"]),
    ],
)
def test_root_declaration_detector(source, expected):
    assert root_declarations(source) == expected
