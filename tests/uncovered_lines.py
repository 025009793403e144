"""List the statements of the library that a test run never executes.

Usage::

    PYTHONPATH=src python3 tests/uncovered_lines.py [pytest args]

Runs pytest in this process (on the whole suite by default) with a line
tracer installed by ``sys.settrace`` and ``threading.settrace``, which
records the lines run in ``src/mhgfilter/*.py``.  Prints each statement
that never ran as ``file:line: source``, then per file the number of
statements that never ran and the number of statements counted, and
exits with pytest's exit code.  Docstrings, ``def`` and ``class``
headers, imports and ``global``/``nonlocal`` declarations are not
counted, so edits to docstrings or comments move neither number, and a
statement counts as run when any line it spans ran (a compound statement:
any line of its header or body).  Code run in a subprocess is not seen.
Tracing makes the run about three times slower; no coverage package
is needed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mhgfilter"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def trace_lines(run):
    """Call ``run()`` with line tracing on; return its result and the set of
    (file name, line) pairs run in the package."""
    prefix = str(PACKAGE) + "/"
    wanted: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(prefix)
        return local if keep else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def statements(tree: ast.AST):
    """(first line, last line) of each counted statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue    # a docstring
        yield node.lineno, node.end_lineno


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "tests"))
    # read before the run: a file edited during it is reported as imported
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    code, hits = trace_lines(lambda: pytest.main(argv or [str(ROOT / "tests")]))
    per_file = {}
    for path, source in sources.items():
        lines = source.splitlines()
        ran = {line for name, line in hits if name == str(path)}
        counted = list(statements(trees[path]))
        missed = sorted(first for first, last in counted
                        if ran.isdisjoint(range(first, last + 1)))
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {lines[line - 1].strip()}")
        per_file[rel] = len(missed), len(counted)
    print("missed  counted  file")
    for rel, (n, total) in per_file.items():
        print(f"{n:6d}  {total:7d}  {rel}")
    print(f"{sum(n for n, _ in per_file.values()):6d}  "
          f"{sum(t for _, t in per_file.values()):7d}  total")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
