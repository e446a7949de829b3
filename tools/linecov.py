"""Line coverage of src/schubertisom/ by the tests, with the stdlib only.

Usage, from the repository root (arguments go to pytest as they are):

    python tools/linecov.py -q tests/
    python tools/linecov.py -q tests/test_weyl.py -k interval

pytest runs in this process under a `sys.settrace` tracer (also set for new
threads) that records the lines run by code under src/schubertisom/ and
ignores every other frame.  Afterwards the tool prints, per module, the
statement lines that never ran.  Statements are found with `ast`; a
statement counts as run when any line of its own span ran (a compound
statement's span ends before its body), docstrings and other bare strings
are left out, and so are `try`, `global` and `nonlocal`, which compile to no
line of their own.  The exit status is pytest's.

No test of the suite fails only under the tracer, so the tool deselects
nothing; one that ever does can be left out with pytest's own `--deselect`.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "schubertisom"

_NO_LINE = (ast.Try, ast.Global, ast.Nonlocal) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _statements(path):
    """{first line: set of lines} for each statement of the module at path
    that compiles to code of its own: any line of the set running runs it."""
    spans = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_LINE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.end_lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # a compound statement: its header only
            last = max(node.lineno, body[0].lineno - 1)
        spans[first] = set(range(first, last + 1))
    return spans


def _ranges(lines):
    """'3, 7-9' for [3, 7, 8, 9]."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = n
        prev = n
    return ", ".join(out)


def main(argv):
    ran = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # on each call: trace the package's frames only
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nstatement lines of src/schubertisom/ that never ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        spans = _statements(path)
        hit = ran.get(str(path), set())
        missed = [first for first, lines in spans.items() if not lines & hit]
        name = path.relative_to(SRC)
        if missed:
            print(f"{name}: {len(missed)} of {len(spans)}: {_ranges(missed)}")
        else:
            print(f"{name}: none of {len(spans)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
