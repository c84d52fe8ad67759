"""List the statements of `src/illoc` that the tier-1 suite never runs.

Run from anywhere, with pytest's arguments after the script's name:

    python tests/trace_coverage.py [pytest arguments ...]
    python tests/trace_coverage.py --deselect tests/test_cli.py::TestConsoleScript

It runs the suite in this process under a `sys.settrace` line tracer that
records the lines it enters in the package's files, then prints, per module,
each statement that never ran, and exits with pytest's exit code. It needs
only the standard library and pytest. A statement counts as run if one of
its lines ran; a compound statement (`if`, `for`, `def`, ...) counts by its
header. Statements that compile to no bytecode (docstrings, `global`) are
not counted, and code that runs in a subprocess is not seen. The file's name
does not start with `test_`, so pytest does not collect it.

Under the tracer the tests that count the reference cycles a check leaves
fail: CPython copies a traced frame's locals into a dict, which makes cycles
of its own. Their failures say nothing about the package.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "illoc"
_PREFIX = str(PACKAGE) + os.sep

_ran: dict[str, set[int]] = defaultdict(set)


def _trace(frame, event, arg):
    """The global tracer: a line tracer for the package's frames, none for others."""
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    lines = _ran[filename]

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


class _Retrace:
    """Install the tracer again around every test phase, and note the tests that unset it.

    CPython unsets a tracer that raises, and at the recursion limit the call
    of the tracer is what raises RecursionError, so the statements that such a
    test runs after that point are not seen.
    """

    def __init__(self):
        self.unset: list[str] = []

    def _phase(self, item):
        sys.settrace(_trace)
        try:
            return (yield)
        finally:
            if sys.gettrace() is not _trace and item.nodeid not in self.unset:
                self.unset.append(item.nodeid)

    pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = (
        pytest.hookimpl(wrapper=True)(_phase)
    )


def _code_lines(code: types.CodeType):
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_lines(const)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement's first line -> the lines with bytecode that count for it."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = set(_code_lines(compile(source, str(path), "exec")))
    found: dict[int, set[int]] = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            body = getattr(node, "body", None)
            if body and body[0].lineno > node.lineno:
                last = body[0].lineno - 1  # a compound statement counts by its header
            else:
                last = node.end_lineno
            lines = executable.intersection(range(first, last + 1))
            if lines:
                found.setdefault(node.lineno, set()).update(lines)
    return found


def report() -> None:
    """Print, per module, the statements that never ran."""
    missed_total = counted_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source_lines = path.read_text(encoding="utf-8").splitlines()
        found = statements(path)
        ran = _ran.get(str(path), set())
        missed = sorted(first for first, lines in found.items() if not lines & ran)
        missed_total += len(missed)
        counted_total += len(found)
        name = path.relative_to(ROOT)
        print(f"{name}: {len(missed)} of {len(found)} statements never ran")
        for first in missed:
            print(f"  {first:5d}  {source_lines[first - 1].strip()}")
    print(f"total: {missed_total} of {counted_total} statements never ran")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    retrace = _Retrace()
    sys.settrace(_trace)  # before the package is first imported, so its module code is seen
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--rootdir", str(ROOT), str(ROOT / "tests"), *argv],
            plugins=[retrace],
        )
    finally:
        sys.settrace(None)
    report()
    for nodeid in retrace.unset:
        print(f"tracer unset during {nodeid}: what it ran after that is not seen")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
