"""Statement coverage of ``src/levelforge`` under the test suite, stdlib only.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``) and prints, for each levelforge module, the
statements that no test ran. Docstrings, ``def``/``class`` lines and imports
are not counted. A statement counts as run when any line of its span ran
(for a compound statement, the span is its header), so a multi-line
``if (`` is not reported. Informative only: it gates nothing, and it exits
with pytest's own exit code. Tests marked ``timing`` assert a wall-time
bound, so they run untraced and their lines are not counted.

    python scripts/linecov.py                         # the whole suite
    python scripts/linecov.py -q -k "not criterion_06"  # extra pytest arguments

Tracing makes the suite several times slower.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levelforge"

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)
_NOT_COUNTED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line span of each counted statement in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = []
    for parent in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            # A lambda's or a conditional expression's body is not a block.
            for node in block if isinstance(block, list) else []:
                if isinstance(node, _NOT_COUNTED):
                    continue
                if _is_docstring(node, parent):
                    continue
                last = node.end_lineno
                if isinstance(node, _COMPOUND):
                    last = max(node.lineno, _first_line(node.body[0]) - 1)
                spans.append((node.lineno, last))
    return sorted(set(spans))


def _ranges(lines: list[int]) -> str:
    """"3, 7-9, 12" for [3, 7, 8, 9, 12]."""
    out = []
    start = prev = None
    for n in lines + [None]:
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    return ", ".join(out)


class _UntracedTiming:
    """A pytest plugin: each test marked ``timing`` runs with the trace off."""

    def __init__(self, trace):
        self.trace = trace

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        timed = item.get_closest_marker("timing") is not None
        if timed:
            sys.settrace(None)
        yield
        if timed:
            sys.settrace(self.trace)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv, plugins=[_UntracedTiming(trace)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    print("\nstatements no test ran, per src/levelforge module:")
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        spans = statements(path)
        unrun = [a for a, b in spans if not ran.intersection(range(a, b + 1))]
        total += len(spans)
        missed += len(unrun)
        shown = _ranges(unrun) if unrun else "-"
        print(f"  {path.name:<16} {len(unrun):>4} of {len(spans):>4}  {shown}")
    print(f"  {'total':<16} {missed:>4} of {total:>4}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
