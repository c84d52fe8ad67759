"""The CLI's help and usage errors print exactly what `tests/cli_expected` records.

Each recording is one call's exit code, stdout and stderr at COLUMNS=80. After a
deliberate change to the CLI's surface, record them again with
`PYTHONPATH=src python tests/test_cli_surface.py`.
"""

import argparse
import contextlib
import io
import os
from pathlib import Path

import pytest

from illoc.cli import build_parser, main

EXPECTED = Path(__file__).resolve().parent / "cli_expected"
COMMANDS = ("eval", "table", "taut", "check-matrix", "square", "entail", "unfold", "fmt")
# the fewest arguments each command runs with
ARGS = {"eval": ["p"], "table": ["p"], "taut": ["p"], "check-matrix": [], "square": [],
        "entail": ["p", "q"], "unfold": ["--act", "x", "--steps", "1", "--seed", "standard:0"],
        "fmt": ["p"]}
CALLS = {
    "no-arguments": [],
    "help": ["-h"],
    "unknown-command": ["frob"],
    **{f"{c}-help": [c, "-h"] for c in COMMANDS},
    **{f"{c}-unknown-option": [c, *ARGS[c], "--frob"] for c in COMMANDS},
    **{f"{c}-bad-output": [c, *ARGS[c], "--output", "xml"] for c in COMMANDS},
    **{f"{c}-extra-positional": [c, *ARGS[c], "q"] for c in COMMANDS},
    "taut-negative-budget": ["taut", "--budget", "-1", "p"],
    "taut-no-jobs": ["taut", "--jobs", "0", "p"],
    "taut-unknown-matrix": ["taut", "--matrix", "x", "p"],
    "unfold-without-act-or-seed": ["unfold", "--steps", "1"],
    "entail-one-side": ["entail", "p"],
    "square-bad-force": ["square", "--force", "1x"],
}


def record(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", CALLS)
def test_call_prints_the_recorded_text(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert record(CALLS[name]) == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")


def command_parser(command):
    parser = build_parser()
    return next(action.choices[command] for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_prints_its_arguments_before_it_has_parsed(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage, help_ = command_parser(command).format_usage(), command_parser(command).format_help()
    assert help_.startswith(usage)
    recorded = (EXPECTED / f"{command}-help.txt").read_text(encoding="utf-8")
    assert recorded == f"exit 0\n--- stdout\n{help_}--- stderr\n"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in CALLS.items():
        (EXPECTED / f"{name}.txt").write_text(record(argv), encoding="utf-8")
