"""Guards for tooling that reaches into the package from outside it."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_targets():
    """The TARGETS tuple of bench/spans.py, read without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_span_targets_resolve():
    """Every (module, function) the benchmark's tracer wraps still exists,
    so a refactor cannot silently break traced runs."""
    targets = _span_targets()
    assert targets
    for module, function in targets:
        mod = importlib.import_module(f"schubertisom.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
