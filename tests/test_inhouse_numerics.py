"""The package's numerics stay in-house.

Transforms, factorizations and eigen-solves are written in ``src/spokesense``
itself; numpy.fft, numpy.linalg and scipy may serve the tests as oracles but
never the package.  This test parses every module and fails on any import of
those modules or any attribute use such as ``np.linalg.norm``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spokesense"
FORBIDDEN_NUMPY = ("fft", "linalg")


def forbidden_uses(source: str) -> list[str]:
    """Line-numbered uses of numpy.fft, numpy.linalg or scipy in ``source``."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(a.asname for a in node.names if a.name == "numpy" and a.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NUMPY
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            modules = [f"numpy.{node.attr}"]
        else:
            continue
        for module in modules:
            root, _, rest = module.partition(".")
            if root == "scipy" or (root == "numpy" and rest.split(".")[0] in FORBIDDEN_NUMPY):
                found.append(f"line {node.lineno}: {module}")
    return found


def test_package_uses_no_outside_numerics():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    uses = {path.name: forbidden_uses(path.read_text()) for path in modules}
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.norm([1.0])\n",
        "import numpy\nx = numpy.fft.rfft([1.0])\n",
        "import numpy.linalg\n",
        "from numpy import fft\n",
        "from numpy.linalg import cholesky\n",
        "import scipy.signal as ss\n",
        "from scipy import linalg\n",
        "import numpy as xp\nxp.fft.fft\n",
    ],
)
def test_detector_flags_outside_numerics(source):
    assert forbidden_uses(source)


def test_detector_passes_in_house_code():
    assert forbidden_uses("import numpy as np\nfrom .signals import fft_radix2\nnp.abs(1)\n") == []
