"""Statements of `src/iongate` that no tier-1 test executes.

    python3 tests/unrun_lines.py

Runs the tier-1 suite in this process, as `python -m pytest -q
--continue-on-collection-errors -p no:cacheprovider tests` would, under a
line tracer (`sys.settrace`, and `threading.settrace` for the threads the
suite starts) that records only the frames of this checkout's
`src/iongate`. Then it prints every statement none of whose lines ran, as
`path:line: first source line`, and the count per module. A compound
statement (def, class, if, for, while, try, with) counts as run when any
line within it ran, so an unrun branch is listed statement by statement;
docstrings are not statements. Code that runs only in another process
shows as unrun too, because no tracer follows it there: the fork route of
`analysis._sector_composites` (the suite's own process has BLAS threads, so
only its subprocesses fork), the numpy import and `gc.freeze` of
`cli._import_numpy` (only a fresh process imports numpy there) and the
`__main__` guard of `cli`. It needs no coverage package. It exits with
pytest's exit code. The file name does not match pytest's `test_*.py`, so
the suite does not collect it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iongate"
sys.path.insert(0, str(ROOT / "src"))
# the suite's subprocesses import this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
)

import pytest  # noqa: E402


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of every statement of the module at ``path``,
    decorators included, docstrings left out, in source order."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in docstrings:
            decorators = [d.lineno for d in getattr(node, "decorator_list", [])]
            spans.append((min([node.lineno, *decorators]), node.end_lineno))
    return sorted(spans)


def traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``argv`` and the lines run per file of the
    package."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    watched: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            watched[name] = os.path.realpath(name).startswith(prefix)
        return local if watched[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = int(pytest.main(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    runs: dict[str, set[int]] = {}
    for name, lines in hits.items():
        runs.setdefault(os.path.realpath(name), set()).update(lines)
    return code, runs


def main() -> int:
    argv = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    code, runs = traced(argv + [str(ROOT / "tests")])
    total = unrun_total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = runs.get(os.path.realpath(path), set())
        source = path.read_text().splitlines()
        spans = statements(path)
        unrun = [
            (first, last)
            for first, last in spans
            if not any(line in ran for line in range(first, last + 1))
        ]
        for first, _ in unrun:
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
        counts.append((path.relative_to(ROOT), len(unrun), len(spans)))
        total += len(spans)
        unrun_total += len(unrun)
    for name, unrun, spans in counts:
        print(f"{str(name) + ':':<28} {unrun:4d} of {spans:4d} statements unrun")
    print(f"{'total:':<28} {unrun_total:4d} of {total:4d} statements unrun")
    return code


if __name__ == "__main__":
    sys.exit(main())
