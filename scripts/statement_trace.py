"""Every statement of ``src/pvkit`` that the tier-1 tests do not run.

The script runs the test suite in this process under a ``sys.settrace``
line hook that records the lines run in pvkit's own files, with pytest's
cache off and a fixed Hypothesis seed, so a run repeats.  It then walks
the AST of each module and reports a statement as unreached when no line
of its span was run.  Statements that compile to no code are skipped:
docstrings, ``nonlocal`` and ``global`` declarations, and imports under
``if TYPE_CHECKING:``.  Inside an unreached compound statement only the
outermost one is reported.

Each unreached statement is printed with its reason from ``REASONS``,
keyed by module, enclosing function and the statement's first source
line, so the table survives edits that move lines.  The script exits 1
when an unreached statement has no reason, and with pytest's status when
a test fails::

    PYTHONPATH=src python scripts/statement_trace.py

It takes about three times as long as the plain suite.
"""
from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pvkit"
HYPOTHESIS_SEED = 0

# statements that tests reach only in a subprocess, which the hook does not see
REASONS = {
    ("pvkit", "__dir__", "return sorted(set(globals()) | set(__all__))"):
        "dir(pvkit) runs in test_public_api's subprocess",
    ("pvkit.cli", "<module>", "sys.exit(main())"):
        "python -m pvkit.cli runs in test_io_cli's subprocess",
}


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run the tier-1 tests; return pytest's status and the lines run per
    pvkit file."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              f"--hypothesis-seed={HYPOTHESIS_SEED}", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), hits


def _is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _is_type_checking(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def unreached(path: Path, lines: set[int]):
    """Yield ``(line, function, source)`` for each outermost statement of
    the module at ``path`` with no line in ``lines``."""

    def walk(body: list[ast.stmt], function: str):
        for node in body:
            if _is_docstring(node, body) or isinstance(node, (ast.Nonlocal, ast.Global)):
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if not lines.intersection(range(start, node.end_lineno + 1)):
                yield node.lineno, function, ast.unparse(node).splitlines()[0]
                continue
            inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            for field in ("body", "orelse", "finalbody"):
                if field == "body" and _is_type_checking(node):
                    continue
                yield from walk(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")).body, "<module>")


def main() -> int:
    status, hits = trace_suite()
    if status != 0:
        print(f"the test suite failed (pytest status {status})")
        return status
    missing = 0
    print("unreached statements in src/pvkit:")
    for path in sorted(PACKAGE.glob("*.py")):
        module = "pvkit" if path.stem == "__init__" else f"pvkit.{path.stem}"
        for line, function, source in unreached(path, hits.get(str(path), set())):
            reason = REASONS.get((module, function, source))
            missing += reason is None
            print(f"  {module}:{line} in {function}: {source}\n"
                  f"    {reason or 'NO REASON: test it or delete it'}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
