"""Guards for tooling that reaches into the package from outside it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
WORKER = ROOT / "bench" / "worker.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
README = ROOT / "README.md"
PACKAGE_SRC = ROOT / "src" / "schubertisom"


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


# Module-level mutable tables that may stay.  weyl._CONTEXTS shares one
# context per Cartan matrix among its elements, weakly, so it empties with
# them.  Removing it was measured on the benchmark's roundtrip workload:
# sparse columns held on each element raised rss_growth_mb from a median of
# 1.04 to 1.30 MB over 6 alternating pairs (+25%, the benchmark's bound),
# and columns built lazily on CartanMatrix raised it by about 55% over 4.
MODULE_TABLES = {("weyl", "_CONTEXTS", "WeakValueDictionary")}
_MUTABLE_LITERALS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
_TABLE_TYPES = {"dict", "set", "list", "defaultdict", "OrderedDict", "WeakValueDictionary",
                "WeakKeyDictionary"}
_CACHE_DECORATORS = {"cache", "lru_cache"}


def _called_name(node):
    """The name behind f, f(...), mod.f or mod.f(...); None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_new_module_memo_tables():
    """A module-level dict, set, list or weak mapping in src/, or a function
    under functools.cache or lru_cache, is a cache that outlives every call;
    new ones must not appear beside the one allowed above, and that one
    must keep its kind."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, _MUTABLE_LITERALS):
                kind = type(value).__name__
            elif isinstance(value, ast.Call) and _called_name(value) in _TABLE_TYPES:
                kind = _called_name(value)
            else:
                continue
            found |= {(path.stem, t.id, kind) for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.stem, node.name, _called_name(d)) for d in node.decorator_list
                          if _called_name(d) in _CACHE_DECORATORS}
    assert found - MODULE_TABLES == set()


def test_cli_import_builds_no_parser():
    """cli.main builds its parser on first use: the benchmark's workers and
    other importers that never call main do not pay for it."""
    code = "import schubertisom.cli as cli; assert cli._parser is None"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_import_loads_no_dataclasses():
    """The package's records are plain classes, so importing the CLI does
    not pull in `dataclasses` and, through it, `inspect`.  `-S` keeps
    site-packages hooks, which may import either, out of the check."""
    code = (
        "import sys, schubertisom.cli; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True, timeout=60)


# Public names that nothing in src/, the README, the benchmark or the
# acceptance gate refers to, each kept on purpose.
DOCUMENTED = {
    ("reconstruct", "descent_sets"): "the README describes it: every abstract descent set of an oracle",
}


def _imported(tree):
    """(module, name) for each `from .module import name` and `from
    schubertisom[.module] import name` in tree; module is "" for the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.split(".")[0] == "schubertisom":
                module = node.module.partition(".")[2]
            else:
                continue
            found |= {(module, alias.name) for alias in node.names}
    return found


def _src_references(trees):
    """(module, name) for each module-level function and class that the
    modules in trees refer to outside its own body: by name in its own
    module, imported (`from .module import name`) or read as `module.name`."""
    used = set()
    for module, tree in trees.items():
        used |= _imported(tree)
        used |= {(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for k, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                others = tree.body[:k] + tree.body[k + 1:]
                if any(isinstance(n, ast.Name) and n.id == node.name
                       for other in others for n in ast.walk(other)):
                    used.add((module, node.name))
    return used


def _src_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_SRC.glob("*.py"))}


def test_src_names_have_a_caller():
    """Every public module-level function and class in src/ is used: by
    name in its own module outside its own body, imported (`from .module
    import name`) or read as `module.name` elsewhere in src/, exported by
    the package and named in the README as a whole word, traced or called
    by the benchmark, imported by the acceptance gate, or listed in
    DOCUMENTED with its reason.  Being exported is not a use on its own:
    helpers that only tests call belong in the tests."""
    trees = _src_trees()
    exports = _imported(trees.pop("__init__"))
    exported = {name: module for module, name in exports}
    readme = set(re.findall(r"\w+", README.read_text()))
    used = {(module, name) for module, name in exports if name in readme} | set(_span_targets())
    used |= {(module or exported.get(name), name)
             for module, name in _imported(ast.parse(ACCEPTANCE.read_text()))}
    used |= _src_references(trees)
    mentioned = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(ast.parse(WORKER.read_text()))}
    public = [(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    unused = [f"{module}.{name}" for module, name in public
              if (module, name) not in used and name not in mentioned
              and (module, name) not in DOCUMENTED]
    assert not unused, unused


def test_src_private_names_have_a_caller():
    """Every private module-level function and class in src/ is used in
    src/ outside its own body, as `test_src_names_have_a_caller` counts
    uses there; tests do not count, so a helper that only they reach, or
    one a refactor left behind, fails."""
    trees = _src_trees()
    used = _src_references(trees)
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and (module, node.name) not in used]
    assert not unused, unused


def _attributes(tree):
    """The attribute names read as `.name` anywhere in tree."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_src_members_have_a_caller():
    """Every public method and property of a public class in src/ is used:
    read as `.name` somewhere in src/ outside its own body, named in the
    README as a whole word, read by the benchmark's worker or tracer, read
    as `.name` by the acceptance gate, or listed in DOCUMENTED as
    ("module", "Class.name") with its reason.  Dunder methods are the
    language's to call and are not checked."""
    trees = _src_trees()
    reads = Counter(name for tree in trees.values() for name in _attributes(tree))
    outside = set(re.findall(r"\w+", README.read_text()))
    outside |= set(_attributes(ast.parse(ACCEPTANCE.read_text())))
    for path in (WORKER, SPANS):
        outside |= {getattr(node, "id", None) or getattr(node, "attr", None)
                    for node in ast.walk(ast.parse(path.read_text()))}
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                own = _attributes(node).count(node.name)
                if (reads[node.name] == own and node.name not in outside
                        and (module, f"{cls.name}.{node.name}") not in DOCUMENTED):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert not unused, unused


def test_linecov_runs_and_lists_every_module():
    """tools/linecov.py (outside tier-1) on one test file: it exits with
    pytest's status and reports every module of the package."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "linecov.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_records.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout.split("statement lines of src/schubertisom/ that never ran:")[1]
    for path in PACKAGE_SRC.glob("*.py"):
        assert f"schubertisom/{path.name}: " in report, path.name


# Error types that keep their own constructor, each with its reason; every
# other one is built by SchubertError.__init__ from its `fields` and `message`.
OWN_CONSTRUCTORS = {
    "NonSquareError": "its text picks one of two clauses by whether a label is given",
    "NotInIntervalError": "its text joins the word's letters, or reads e for the empty word",
}


def test_errors_use_the_base_constructor():
    """No error type in src/ defines __init__ but SchubertError and those in
    OWN_CONSTRUCTORS: the others declare fields and a message, or keep
    Exception's own arguments."""
    for path in PACKAGE_SRC.glob("*.py"):
        importlib.import_module(f"schubertisom.{path.stem}".removesuffix(".__init__"))
    base = importlib.import_module("schubertisom.errors").SchubertError
    kinds, own = [base], []
    while kinds:
        for kind in kinds.pop().__subclasses__():
            kinds.append(kind)
            if kind.__module__.startswith("schubertisom.") and "__init__" in vars(kind):
                own.append(kind.__name__)
    assert sorted(own) == sorted(OWN_CONSTRUCTORS)


# The loops in src/ that apply a simple reflection by hand, written as
# `for j, a in columns[i]: v[j] -= c * a`, each with its reason.  `_apply` is
# the step; every other loop stays because routing it through `_apply` was
# measured slower: the median per-pair time ratio of in-process interleaved
# passes over seed-1 inputs, ranged over 2-3 sets, on a 2-vCPU x86-64 host
# with Python 3.11.7 (CHANGES.md has each set).  Any other reflection calls
# `_apply`.
HAND_REFLECTIONS = {
    ("weyl", "_apply"): "the step itself, letter by letter",
    ("weyl", "_walk"):
        "through _apply: classes +3.5-5.0%, roundtrip +1.2-4.7%, the interval layer +6.1-6.4%",
    ("equivalence", "_extend"): "through _apply: classes +1.5-2.6%",
    ("weyl", "_subword_vectors"):
        "through _apply: the interval layer +4.2-4.4% (roundtrip passes -1.1 to +0.5%)",
    ("weyl", "interval"):
        "through _apply: the interval layer +3.7-4.6% (roundtrip passes +0.2-1.3%)",
    ("weyl", "WeylElement._index_word"):
        "through _apply: word requests -0.9 to +2.6%; with bruhat_leq's, "
        "word and bruhat requests +1.3-2.2%",
    ("weyl", "bruhat_leq"):
        "through _apply with _index_word's: word and bruhat requests +1.3-2.2% "
        "(bruhat requests alone -0.1 to +2.5%)",
}


def _is_hand_reflection(node):
    """Whether node is a loop `for j, a in ...:` whose body holds `v[j] -= c * a`."""
    if not (isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
            and len(node.target.elts) == 2
            and all(isinstance(e, ast.Name) for e in node.target.elts)):
        return False
    j, a = (e.id for e in node.target.elts)
    return any(
        isinstance(s, ast.AugAssign) and isinstance(s.op, ast.Sub)
        and isinstance(s.target, ast.Subscript) and getattr(s.target.slice, "id", None) == j
        and isinstance(s.value, ast.BinOp) and isinstance(s.value.op, ast.Mult)
        and a in (getattr(s.value.left, "id", None), getattr(s.value.right, "id", None))
        for s in node.body
    )


def _hand_reflections(tree, scope=()):
    """The dotted name of the function around each hand reflection in tree,
    once per loop."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        elif _is_hand_reflection(node):
            yield ".".join(scope)
        yield from _hand_reflections(node, inner)


def test_hand_reflections_are_measured():
    """Every hand-written reflection loop in src/ is listed in
    HAND_REFLECTIONS, once, with the cost that keeps it; anywhere else a
    reflection is a call to `weyl._apply`."""
    found = [(module, name) for module, tree in _src_trees().items()
             for name in _hand_reflections(tree)]
    assert sorted(found) == sorted(HAND_REFLECTIONS)


def test_cli_opens_files_in_two_places():
    """The CLI reads every input file through `_read_json`, in binary, so
    json.loads decodes the bytes whatever the locale; the one other open
    is `_emit`'s UTF-8 --output file."""
    tree = ast.parse((PACKAGE_SRC / "cli.py").read_text())
    opens = [
        (fn.name, ast.unparse(node))
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
    ]
    assert opens == [
        ("_read_json", "open(path, 'rb')"),
        ("_emit", "open(args.output, 'w', encoding='utf-8')"),
    ]


def test_cli_reads_no_private_attributes():
    """cli.py reads no private attribute of argparse or any other module, as a
    Python release may rename one; dunders such as `__name__` are the
    language's.  The one it reads is the package's own
    `cohomology._product_table`."""
    tree = ast.parse((PACKAGE_SRC / "cli.py").read_text())
    private = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr.startswith("_") and not node.attr.endswith("__")]
    assert private == ["cohomology._product_table"]
