"""No line of the package's source is longer than 100 characters.

This test reads every module under ``src/spokesense`` and fails on any line
over the limit, naming the file and line number, so the limit needs no
checking by hand.
"""

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
