"""Every call of a seeded CLI corpus prints exactly what `tests/cli_corpus` records.

`corpus()` builds about 1,200 in-process calls from one seed: every command in
both matrices, text and JSON output, `--defs` and `--valuation` files, budgets,
bad input and bad seeds, with exit codes 0 to 4. Each command's calls are
recorded as JSON lines in `cli_corpus/<command>.jsonl`, one object per call
with its argv, exit code, stdout and stderr at COLUMNS=80, run in a folder
that holds `FILES`. Where `tests/m_oracle.py` or `tests/mb_oracle.py` decides a
recorded verdict, the verdict must agree with it.

Record the corpus again only with a change that alters the CLI's output on
purpose, and list the calls that changed:
`PYTHONPATH=src python tests/test_cli_corpus.py`.
"""

import contextlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from illoc.cli import main
from illoc.syntax import And, Atom, Force, Implies, Not, Or, parse
import m_oracle
import mb_oracle

CORPUS = Path(__file__).resolve().parent / "cli_corpus"
SEED = 31
COMMANDS = ("eval", "table", "taut", "check-matrix", "square", "entail", "unfold", "fmt")

# the files a call may name, written into the folder the corpus runs in
FILES = {
    "acts.illoc": "act x = [f](p & q);\nact y = ~x | [g](p);\nact z = [h](y) -> x;\n",
    "program.illoc": "# a force over a defined act\nact w = [f](~p | q);\n[g](w) -> w\n",
    "cyclic.illoc": "act x = [promise](~x);\nact y = [f](y -> p) & x;\nact u = [f](p);\n",
    "bad.illoc": "act x = [f](p;\n",
    "k2.json": json.dumps({
        "atom_values": {"p": ["a"], "q": []},
        "generators": {"f": {"p": {"on_true": ["a"], "on_false": []},
                             "q": {"on_true": [], "on_false": ["b"]}},
                       "g": {"p": {"on_true": ["a", "b"], "on_false": ["a"]}}},
        "signatures": {"f": {"on_true": ["b"], "on_false": []},
                       "g": {"on_true": [], "on_false": ["a"]}},
        "act_values": {"[f](p)": {"on_true": ["a"], "on_false": ["b"]},
                       "[g](q)": {"on_true": [], "on_false": ["a"]}},
    }),
    "standard.json": json.dumps(
        {"generators": {"f": {"p": {"on_true": ["a"], "on_false": ["a"]}}}}),
    "list.json": "[1, 2]",
    "broken.json": "{\"atom_values\": ",
}

M_ATOMS = ("p", "q", "r", "s", "t")
MB_ATOMS = ("p", "q")
FORCES = ("f", "g", "think")
ALGEBRAS = ("a", "a,b", "a,b,c")
MODES = ("free", "pointwise", "connective")
OUTPUTS = ("text", "json")
MB_ORACLE_SPACE = 300  # the mb oracle scans in pure Python: decide only small spaces


def formula(rng, depth, atoms, forces=FORCES):
    if depth <= 0 or rng.random() < 0.25:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(formula(rng, depth - 1, atoms, forces))
    if kind == 1:
        return Force(rng.choice(forces), formula(rng, depth - 1, atoms, forces))
    binary = (And, Or, Implies)[kind - 2]
    return binary(formula(rng, depth - 1, atoms, forces), formula(rng, depth - 1, atoms, forces))


def text(f, rng) -> str:
    """f written out by hand, with every binary operand in parentheses and random spacing."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + text(f.body, rng)
    if isinstance(f, Force):
        return f"[{f.force}]({text(f.content, rng)})"
    op = {And: "&", Or: "|", Implies: "->"}[type(f)]
    gap = rng.choice(("", " "))
    return f"({text(f.left, rng)}{gap}{op}{gap}{text(f.right, rng)})"


def corpus(seed=SEED) -> dict:
    """Each command's calls, as argv lists, built from seed."""
    rng = random.Random(seed)
    calls = {command: [] for command in COMMANDS}

    def m_formula(depth=3):
        return text(formula(rng, depth, M_ATOMS[:rng.randint(1, 5)]), rng)

    def mb_formula(depth=2):
        return text(formula(rng, depth, MB_ATOMS, FORCES[:2]), rng)

    def mb_options():
        options = ["--matrix", "mb", "--algebra", rng.choice(ALGEBRAS), "--mode", rng.choice(MODES)]
        if rng.random() < 0.3:
            options.append("--all-valuations")
        return options + ["--budget", str(rng.choice((1, 60, 4000, 4000)))]

    def output():
        return ["--output", rng.choice(OUTPUTS)]

    # taut and entail, the scans
    for _ in range(160):
        calls["taut"].append(["taut", *output(), m_formula()])
    for _ in range(120):
        calls["entail"].append(["entail", *output(), m_formula(2), m_formula(2)])
    for _ in range(240):
        calls["taut"].append(["taut", *mb_options(), *output(), mb_formula(rng.randint(1, 3))])
    for _ in range(120):
        calls["entail"].append(["entail", *mb_options(), *output(), mb_formula(), mb_formula()])
    for _ in range(20):
        calls["taut"].append(["taut", "--matrix", rng.choice(("m", "mb")), *output(),
                              "--defs", "acts.illoc", rng.choice(("x", "y", "z", "x -> y", "~z"))])
        calls["entail"].append(["entail", "--matrix", rng.choice(("m", "mb")), *output(),
                                "--defs", "acts.illoc", rng.choice("xyz"), rng.choice("xyz")])
    for command in ("taut", "table"):
        for matrix in ("m", "mb"):
            calls[command].append([command, "--matrix", matrix, "--defs", "program.illoc"])
            calls[command].append([command, "--matrix", matrix, "--defs", "cyclic.illoc", "x"])

    # eval
    for _ in range(100):
        f = formula(rng, 3, M_ATOMS[:3])
        assigns = [f"--assign={name}={rng.randint(0, 1)}" for name in M_ATOMS[:rng.randint(2, 3)]]
        calls["eval"].append(["eval", *output(), *assigns, text(f, rng)])
    for _ in range(80):
        calls["eval"].append(["eval", "--matrix", "mb", "--algebra", "a,b",
                              "--mode", rng.choice(MODES), *output(),
                              "--valuation", "k2.json", mb_formula()])
    for argv in (["--valuation", "standard.json", "[f](p)"], ["--valuation", "list.json", "p"],
                 ["--valuation", "broken.json", "p"], ["--valuation", "missing.json", "p"],
                 ["[f](p)"], ["--defs", "acts.illoc", "--valuation", "k2.json", "x"],
                 ["--assign", "p=2", "p"], ["--assign", "=1", "p"]):
        calls["eval"].append(["eval", "--matrix", "mb", *argv])
    calls["eval"] += [["eval", "--assign", "p=1", "p & q"],
                      ["eval", "--defs", "acts.illoc", "--assign", "p=1", "--assign", "q=0", "y"]]

    # table, kept to small spaces: it prints every valuation
    for _ in range(50):
        calls["table"].append(["table", *output(), m_formula(2)])
    for _ in range(50):
        calls["table"].append(["table", "--matrix", "mb", "--algebra", "a",
                               "--mode", rng.choice(MODES),
                               *(["--all-valuations"] if rng.random() < 0.3 else []),
                               *output(), mb_formula(1)])

    # square
    for _ in range(30):
        calls["square"].append(["square", *output(), "--force", rng.choice(FORCES),
                                "--atom", rng.choice(M_ATOMS)])
    for _ in range(30):
        gen = rng.choice(((), ("--gen", "on_true=a;on_false="),
                          ("--gen", "on_true=a,b;on_false=b")))
        calls["square"].append(["square", "--matrix", "mb", "--algebra", rng.choice(ALGEBRAS[:2]),
                                "--mode", rng.choice(MODES), *gen, *output(),
                                "--force", rng.choice(FORCES)])
    calls["square"] += [["square", "--matrix", "mb", "--algebra", "a", "--gen", gen]
                        for gen in ("on_true=a", "on_true=b;on_false=")]
    calls["square"].append(["square", "--matrix", "mb", "--budget", "3"])

    # unfold, with bad seeds and acts
    seeds = ("standard:0", "standard:1", "standard:a", "on_true=a;on_false=b",
             "on_true=;on_false=a,b", "standard:z", "bottom", "on_true=a", "")
    for _ in range(45):
        calls["unfold"].append(["unfold", "--defs", "cyclic.illoc", *output(),
                                "--act", rng.choice(("x", "x", "y", "u", "v")),
                                "--steps", str(rng.randint(0, 5)), "--seed", rng.choice(seeds),
                                "--algebra", rng.choice(ALGEBRAS[:2]), "--mode", rng.choice(MODES)])
    calls["unfold"] += [
        ["unfold", "--defs", "cyclic.illoc", "--act", "x", "--steps", "2", "--seed", "standard:0",
         "--algebra", "a,b", "--valuation", "k2.json"],
        ["unfold", "--defs", "bad.illoc", "--act", "x", "--steps", "1", "--seed", "standard:0"],
        ["unfold", "--act", "x", "--steps", "1", "--seed", "standard:0"],
    ]

    # fmt, with definitions and parse errors
    for _ in range(60):
        calls["fmt"].append(["fmt", *output(), m_formula(4)])
    bad = ("p &", "(p", "p q", "[f]p", "[1](p)", "~", "p -> -> q", "act x = p; x y", "p # comment",
           "act x = [f](y); act y = p; x", "act x = x; x", "act p = q; act p = r; p")
    for argv in bad:
        calls["fmt"].append(["fmt", *output(), argv])
        calls["taut"].append(["taut", rng.choice(("--matrix=m", "--matrix=mb")), argv])
    calls["fmt"] += [["fmt", "--defs", name] for name in (
        "acts.illoc", "program.illoc", "cyclic.illoc", "bad.illoc", "missing.illoc")]
    calls["fmt"] += [["fmt"], ["fmt", ""], ["fmt", "--defs", "acts.illoc", "x & w"],
                     ["fmt", "--defs", "acts.illoc", "act x = p; x"]]

    # usage errors and deep nesting
    calls["check-matrix"] += [["check-matrix"], ["check-matrix", "--output", "json"],
                              ["check-matrix", "--matrix", "m"]]
    calls["taut"] += [["taut"], ["taut", "--budget", "x", "p"], ["taut", "--jobs", "2", "p | ~p"],
                      ["taut", "--matrix", "mb", "--algebra", "", "p"],
                      ["taut", "--matrix", "mb", "--mode", "free", "--budget", "0", "[f](p)"],
                      ["taut", "(" * 300 + "p" + ")" * 300], ["taut", "~" * 3000 + "p"],
                      ["taut", "[f](" * 3000 + "p" + ")" * 3000]]
    calls["fmt"] += [["fmt", "[f](" * 3000 + "p" + ")" * 3000],
                     ["fmt", "q & (" * 300 + "p" + ")" * 300]]
    calls["entail"] += [["entail", "p", ""],
                        ["entail", "--matrix", "mb", "--algebra", "a", "p", "[f](p"]]
    return calls


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded(command) -> list:
    with open(CORPUS / f"{command}.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture
def folder(tmp_path, monkeypatch):
    """The folder a corpus runs in: FILES, COLUMNS=80 and no budget from the environment."""
    for name, content in FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ILLOC_BUDGET", raising=False)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_call_prints_the_recorded_output(command, folder):
    expected = recorded(command)
    assert [call["argv"] for call in expected] == corpus()[command], "the generator has changed"
    for call in expected:
        got = run(call["argv"])
        assert got == call, f"the first call that differs: {call['argv']}"


def test_the_corpus_has_every_exit_code():
    codes = {call["exit"] for command in COMMANDS for call in recorded(command)}
    assert {0, 1, 2, 3, 4} <= codes


def _options(argv):
    """The value of each --option in argv, the flags' as True, and the positionals."""
    options, positionals, rest = {}, [], list(argv[1:])
    while rest:
        item = rest.pop(0)
        if item.startswith("--"):
            name, eq, value = item[2:].partition("=")
            if eq:
                options[name] = value
            elif name == "all-valuations":
                options[name] = True
            else:
                options[name] = rest.pop(0)
        else:
            positionals.append(item)
    return options, positionals


def _m_verdict(call, options, formulas):
    payload = json.loads(call["stdout"]) if options.get("output") == "json" else None
    if call["argv"][0] == "taut":
        status, witness, value = m_oracle.oracle_tautology(*formulas)
        assert call["exit"] == {"tautology": 0, "refuted": 1}[status]
        if payload is not None:
            assert (payload["status"], payload["value"]) == (status, value)
            assert payload["witness"] == (None if witness is None else {"atom_values": witness})
        return
    holds, witness, lhs, rhs = m_oracle.oracle_entails(*formulas)
    assert call["exit"] == (0 if holds else 1)
    if payload is not None:
        values = payload["holds"], payload["left_value"], payload["right_value"]
        assert values == (holds, lhs, rhs)
        assert payload["witness"] == (None if witness is None else {"atom_values": witness})


def _mb_verdict(call, options, f):
    atoms, mode = tuple(options.get("algebra", "a,b").split(",")), options.get("mode", "pointwise")
    slots = mb_oracle.oracle_slots(f, atoms, mode)
    space = 1
    for _, domain in slots:
        space *= len(domain)
    if space > MB_ORACLE_SPACE:
        return False
    status, _, total = mb_oracle.oracle_status(f, atoms, mode,
                                               admissible_only="all-valuations" not in options)
    assert call["exit"] == {"tautology": 0, "refuted": 1}[status]
    if options.get("output") == "json":
        payload = json.loads(call["stdout"])
        assert (payload["status"], payload["checked"]) == (status, total)
    return True


def test_recorded_verdicts_agree_with_the_oracles():
    """Each act-free m `taut` and `entail` that answered, and each mb `taut` that
    answered over a small space, against the oracle of its matrix."""
    checked = {"m": 0, "mb": 0}
    for command in ("taut", "entail"):
        for call in recorded(command):
            options, positionals = _options(call["argv"])
            if call["exit"] not in (0, 1) or "defs" in options:
                continue
            programs = [parse(text) for text in positionals]
            if any(program.definitions for program in programs):
                continue
            formulas = [program.formula for program in programs]
            if options.get("matrix", "m") == "m":
                _m_verdict(call, options, formulas)
                checked["m"] += 1
            elif command == "taut":
                checked["mb"] += _mb_verdict(call, options, *formulas)
    assert checked["m"] >= 200 and checked["mb"] >= 50, checked


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    os.environ.pop("ILLOC_BUDGET", None)
    CORPUS.mkdir(exist_ok=True)
    calls = corpus()
    with tempfile.TemporaryDirectory() as workdir:
        for name, content in FILES.items():
            Path(workdir, name).write_text(content, encoding="utf-8")
        os.chdir(workdir)
        for command in COMMANDS:
            lines = [json.dumps(run(argv), ensure_ascii=False) + "\n" for argv in calls[command]]
            (CORPUS / f"{command}.jsonl").write_text("".join(lines), encoding="utf-8")
