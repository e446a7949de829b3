"""Guards for tooling that reaches into the package from outside it."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_no_permutation_search_in_src():
    """itertools.permutations is reserved for the tests' brute-force
    oracles; the package searches bijections by backtracking only."""
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if {"permutations", "*"} & {alias.name for alias in node.names}:
                    offenders.append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "permutations"
                and isinstance(node.value, ast.Name)
                and node.value.id == "itertools"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


# Module-level mutable tables that may stay: none.  weyl._CONTEXTS is a
# WeakValueDictionary, which keeps a context only while an element uses it.
MODULE_TABLES = set()
_MUTABLE_LITERALS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)


def test_no_new_module_memo_tables():
    """A module-level dict, set or list in src/ is a cache that outlives every
    call; new ones must not appear beside the one allowed above."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            mutable = isinstance(value, _MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in {"dict", "set", "list", "defaultdict", "OrderedDict"}
            )
            if mutable:
                found |= {(path.stem, t.id) for t in targets if isinstance(t, ast.Name)}
    assert found - MODULE_TABLES == set()
