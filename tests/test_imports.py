"""Lints over the package sources with stdlib `ast`: every module-level import is used, and
no module imports a `_`-prefixed name from another module of the package. A guard on what a
command imports before it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted(path for path in (SRC / "illoc").glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line; `__future__` is not a binding."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_lint_sees_an_unused_import():
    source = "from functools import reduce, wraps\nimport os.path\n@wraps(len)\ndef f(): pass\n"
    tree = ast.parse(source)
    assert set(_imported_names(tree)) - _used_names(tree) == {"reduce", "os"}


def _private_imports(tree: ast.Module) -> list[str]:
    """`_`-prefixed names imported from a module of the package, anywhere in a module."""
    return [
        f"{'.' * node.level}{node.module or ''}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "illoc")
        for alias in node.names if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(SOURCES[0].parent.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_names(path):
    private = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.name}: imports private names {private}"


def test_the_lint_sees_a_private_import():
    source = ("from .search import Slot, _slots\nfrom illoc.syntax import _fmt\n"
              "from os import _exit\ndef f():\n    from . import _x\n")
    assert _private_imports(ast.parse(source)) == [".search:_slots", "illoc.syntax:_fmt", ".:_x"]


# Each costs milliseconds of start-up in every command: `dataclasses` imports `inspect`, which
# imports `ast`, `dis` and `tokenize`; `fractions` imports `decimal` and `numbers`, and only
# `TruthValue4.rational` needs it; `json` is imported where a command reads or writes JSON.
SLOW_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal", "json")
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def test_a_command_starts_without_the_slow_imports():
    code = ("import sys, illoc, illoc.cli\nilloc.cli.build_parser()\n"
            f"print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-s", "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# a fresh interpreter for each call, so `json` is imported by the command that prints it
@pytest.mark.parametrize("argv, exit_code, first_line", [
    (["taut", "--output", "json", "p -> p"], 0, None),
    (["taut", "--matrix", "mb", "[think](p)"], 1, "refuted with value <{},{a}>"),
    (["entail", "p", "q"], 1, "does not entail (1 > 0)"),
], ids=["taut-json", "taut-mb-text-witness", "entail-text-witness"])
def test_a_fresh_command_prints_json_without_it_at_start_up(argv, exit_code, first_line):
    done = subprocess.run([sys.executable, "-s", "-m", "illoc", *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (exit_code, "")
    if first_line is None:
        assert json.loads(done.stdout)["status"] == "tautology"
    else:
        head, witness = done.stdout.splitlines()
        assert head == first_line and witness.startswith("witness: {")
        assert isinstance(json.loads(witness.removeprefix("witness: ")), dict)


def test_start_up_builds_no_table():
    # the decode tables and the nonstandard domains are built on demand
    code = ("import sys, illoc, illoc.cli\nilloc.cli.build_parser()\n"
            "hyper, matrix_mb = sys.modules['illoc.hyper'], sys.modules['illoc.matrix_mb']\n"
            "print(len(hyper._values), len(hyper._elements),"
            " hyper.packed_ops.cache_info().currsize,"
            " matrix_mb._nonstandard_codes.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-s", "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0", "0"]
