"""The benchmark's span tracer must match the package's public functions.

``perfbench/spans.py`` names every public function of each traced module as
a timed boundary or as deliberately untraced.  A traced benchmark run exits
1 when a boundary is missing or a public function is unlisted; this test
reports the same mismatch in the test suite.  It only reads ``perfbench/``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import spokesense

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_spans_match_package():
    for info in pkgutil.iter_modules(spokesense.__path__, "spokesense."):
        importlib.import_module(info.name)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.check() == []
