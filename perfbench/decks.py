"""Seeded workloads: the checks each workload sends and their expected answers.

A deck is a list of checks. Each check names what to call, its inputs as
formula trees or command-line arguments, the answer expected from the
oracles, and `full_scan`, the size of the space the call must scan whole
(0 when it may stop early). The worker cycles through a deck; the seed picks
the random formulas, the choices within each fixed stratum, and the order.
"""

from __future__ import annotations

import json
import os
import random

import formulas as F
import oracles as O
from formulas import algebra

MODES = ("free", "pointwise", "connective")

p, q = F.atom("p"), F.atom("q")


def _f(content):
    return F.force("f", content)


SCHEMAS = {
    "force-detachment": F.imp(_f(p), p),
    "neg-force-detachment": F.imp(F.neg(_f(p)), F.neg(p)),
    "and-split": F.imp(_f(F.conj(p, q)), F.conj(_f(p), _f(q))),
    "or-merge": F.imp(F.disj(_f(p), _f(q)), _f(F.disj(p, q))),
    "imp-distribution": F.imp(_f(F.imp(p, q)), F.imp(_f(p), _f(q))),
}

# The README Findings table: verdict per schema and mode at one and two atoms.
README_FINDINGS = {
    "force-detachment": ("tautology", "tautology", "tautology"),
    "neg-force-detachment": ("tautology", "tautology", "tautology"),
    "and-split": ("refuted", "tautology", "tautology"),
    "or-merge": ("refuted", "tautology", "tautology"),
    "imp-distribution": ("refuted", {1: "tautology", 2: "refuted"}, "tautology"),
}

ENTAILMENTS = {
    "criterion": (_f(F.neg(p)), F.neg(_f(p))),
    "and-split": (_f(F.conj(p, q)), F.conj(_f(p), _f(q))),
    "or-merge": (F.disj(_f(p), _f(q)), _f(F.disj(p, q))),
    "detachment": (_f(p), p),
    "repeat": (_f(_f(p)), _f(p)),
}

# A check that may scan a space larger than this must be known to stop early.
SCAN_CAP = 4096
# Random formulas per algebra size and mode in `findings`. Each is refuted
# within its first four valuations, so all of them sit below the median check
# at every seed and the median does not move with the seed.
RANDOM_PER_CELL = 5


class OracleDisagreement(RuntimeError):
    """Two independent sources of expected answers disagree."""


def _check(kind, label, args, expect, full_scan=0):
    return {"kind": kind, "label": label, "args": args, "expect": expect, "full_scan": full_scan}


def _taut_mb(label, tree, k, mode):
    expect = O.taut_mb(F.to_ast(tree), algebra(k), mode)
    full = expect.pop("space", 0)
    return _check("taut_mb", label, {"tree": tree, "k": k, "mode": mode}, expect, full)


def _readme_verdict(schema, mode, k):
    cell = README_FINDINGS[schema][MODES.index(mode)]
    return cell[k] if isinstance(cell, dict) else cell


# --- findings: the README table and beyond, as library calls ---

def findings(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    deck = []
    for k in (1, 2, 3):
        for schema, tree in SCHEMAS.items():
            for mode in MODES:
                check = _taut_mb(f"table K{k} {schema} {mode}", tree, k, mode)
                if k <= 2 and check["expect"]["status"] != _readme_verdict(schema, mode, k):
                    raise OracleDisagreement(f"README and oracle differ on {check['label']}")
                deck.append(check)
    for schema in ("force-detachment", "neg-force-detachment"):
        for mode in MODES:
            deck.append(_taut_mb(f"K4 {schema} {mode}", SCHEMAS[schema], 4, mode))
    for k in (2, 3):
        atoms = algebra(k)
        for mode in MODES:
            expect = O.difference_mb(F.to_ast(_f(_f(p))), F.to_ast(_f(p)), atoms, mode)
            deck.append(_check("idempotence", f"idempotence K{k} {mode}", {"k": k, "mode": mode},
                               expect, expect.pop("space", 0)))
            for complementary in (False, True):
                expect = O.difference_mb(F.to_ast(F.neg(_f(p))), F.to_ast(_f(F.neg(p))), atoms,
                                         mode, complementary_only=complementary)
                deck.append(_check(
                    "neg_swap", f"neg-swap K{k} {mode} complementary={complementary}",
                    {"k": k, "mode": mode, "complementary_only": complementary},
                    expect, expect.pop("space", 0)))
    for name, (left, right) in ENTAILMENTS.items():
        for mode in MODES:
            deck.append(_entail_mb(f"entail K3 {name} {mode}", left, right, 3, mode))
    for k in (2, 3, 4):
        for mode in ("pointwise", "connective"):
            expect = O.square_mb("f", "p", algebra(k), mode)
            deck.append(_check("square_mb", f"square K{k} {mode}", {"k": k, "mode": mode}, expect))
    for k in (2, 3):
        for mode in MODES:
            for _ in range(RANDOM_PER_CELL):
                tree, expect = _random_refutation(rng, k, mode)
                deck.append(_check("taut_mb", f"random K{k} {mode} {F.show(tree)}",
                                   {"tree": tree, "k": k, "mode": mode}, expect))
    rng.shuffle(deck)
    return deck


def _entail_mb(label, left, right, k, mode):
    atoms = algebra(k)
    la, ra = F.to_ast(left), F.to_ast(right)
    expect = O.entails_mb(la, ra, atoms, mode)
    full = expect.pop("space", 0)
    if full > SCAN_CAP:
        raise ValueError(f"{label}: a full scan of {full} valuations is too long for a check")
    return _check("entail_mb", label, {"left": left, "right": right, "k": k, "mode": mode},
                  expect, full)


def _random_refutation(rng, k, mode):
    """A small random formula with a force, refuted within its first four valuations."""
    while True:
        tree = F.random_tree(rng, rng.randint(4, 8), ("p", "q"), ("f", "g"), force_rate=0.3)
        if not F.contains(tree, "force") or O.space_mb([F.to_ast(tree)], algebra(k), mode) > 144:
            continue
        expect = O.taut_mb(F.to_ast(tree), algebra(k), mode)
        if expect.get("index", 4) < 4:
            return tree, expect


# --- wide_m: large formulas in matrix m, as library calls ---

# Nodes per formula for 8, 9, 10 and 11 atoms: a full scan evaluates about
# 2**atoms * 2 * nodes nodes, kept within a factor of two across sizes so
# that one run holds more than a hundred checks at today's speed. The four
# formulas of each atom count take the four sizes, so the formula sizes
# spread from 34 to 312 nodes instead of forming four clusters. Sixteen
# formulas make the percentiles depend less on the shapes one seed draws.
WIDE_NODES = {8: 240, 9: 160, 10: 96, 11: 48}
WIDE_SCALES = (0.7, 0.9, 1.1, 1.3)
WIDE_UNITS = 16


def wide_m(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    deck = []
    for unit in range(WIDE_UNITS):
        n_atoms = 8 + unit % 4
        atoms = [f"x{i}" for i in range(n_atoms)]
        nodes = round(WIDE_NODES[n_atoms] * WIDE_SCALES[(unit + unit // 4) % 4])
        tree = _covering_tree(rng, nodes, atoms)
        defs, main = _split_into_acts(rng, tree)
        text = F.show_program(defs, main)
        program = {"defs": defs, "main": main}
        deck.append(_check("fmt_roundtrip", f"fmt round trip, program #{unit} ({n_atoms} atoms)",
                           {"text": text.replace(" ", "  ")}, {"text": text}))
        deck.append(_check("fmt_roundtrip", f"fmt round trip, formula #{unit} ({n_atoms} atoms)",
                           {"text": F.show_noisy(tree, rng)}, {"text": F.show(tree)}))
        expect = O.taut_m(tree)
        deck.append(_check("taut_m", f"taut A #{unit}", program, expect,
                           expect.pop("space", 0)))
        space = 2 ** n_atoms
        if unit // 4 % 2 == unit % 2:
            deck.append(_check(
                "taut_m", f"taut A -> A #{unit}",
                {"defs": defs, "main": F.imp(main, main)},
                {"status": "tautology"}, space))
        else:
            deck.append(_check(
                "entail_m", f"entail A A #{unit}",
                {"defs": defs, "left": main, "right": main}, {"holds": True}, space))
    rng.shuffle(deck)
    return deck


def _covering_tree(rng, nodes, atoms):
    """A random tree over every atom, refuted by its first assignment (all atoms 0).

    Using every atom makes the full scans cover 2**len(atoms) assignments;
    the refutation at the first assignment makes `taut A` the cheap check it
    is meant to be, at a cost that does not depend on the seed.
    """
    while True:
        tree = F.random_tree(rng, nodes, atoms, ("think", "promise"))
        if (len(O.atoms_of(tree)) == len(atoms)
                and O.eval4(tree, dict.fromkeys(atoms, 0)) != O.ONE):
            return tree


def _split_into_acts(rng, tree, count=3):
    """Name a few disjoint subtrees as acts; each is referenced exactly once."""
    defs = {}

    def subtrees(t, path=()):
        yield path, t
        for i, child in enumerate(t[1:], 1):
            if isinstance(child, (list, tuple)):
                yield from subtrees(child, path + (i,))

    def replace(t, path, new):
        if not path:
            return new
        parts = list(t)
        parts[path[0]] = replace(t[path[0]], path[1:], new)
        return tuple(parts)

    main = tree
    for index in range(count):
        candidates = [
            (path, t) for path, t in subtrees(main)
            if path and 5 <= F.size(t) <= F.size(main) // 3 and not F.contains(t, "ref")
        ]
        if not candidates:
            break
        path, sub = rng.choice(candidates)
        name = f"act{index}"
        defs[name] = sub
        main = replace(main, path, ("ref", name))
    return defs, main


# --- cli_session: in-process command-line calls ---

# What `cli_session` asks `taut` in matrix mb at three atoms at every seed:
# two single-generator tautologies (448 valuations each), one two-generator
# tautology (3,136 valuations) and the refutation of the schema whose verdict
# flips with size (first witness at index 504). These are the slowest checks
# after the refusals; fixing them keeps the 90th percentile on fixed checks.
# The deck has 75 checks, so the 90th percentile falls in the middle of the
# eighth slowest check's executions rather than between two checks.
FIXED_SCANS = [
    ("force-detachment", "connective"),
    ("neg-force-detachment", "pointwise"),
    ("imp-distribution", "connective"),
    ("imp-distribution", "pointwise"),
]
# Seeded `taut` cells must refute within this many valuations, so that they
# stay cheap whatever the seed picks.
EARLY = 16
CYCLIC_PROGRAM = "# a promise not to keep itself\nact x = [promise](~x);\nx\n"
PLAIN_PROGRAM = "act y = [f](p);\ny\n"


def cli_session(seed: int, workdir: str) -> list:
    """Command lines over both matrices, with the documented exit codes."""
    rng = random.Random(seed)
    files = _write_cli_files(rng, workdir)
    deck = []

    def add(label, argv, exit_code, full_scan=0, known_error=None, **expect):
        check = _check("cli", label, {"argv": argv}, {"exit": exit_code, **expect}, full_scan)
        if known_error:
            check["known_error"] = known_error
        deck.append(check)

    # fmt
    add("fmt README", ["fmt", "((p)) & (q | r)"], 0, stdout="p & (q | r)")
    for i in range(9):
        tree = F.random_tree(rng, rng.randint(10, 30), ("p", "q", "r"), ("f", "think"))
        add(f"fmt noisy #{i}", ["fmt", F.show_noisy(tree, rng)], 0, stdout=F.show(tree))
    tree = F.random_tree(rng, 15, ("p", "q"), ("f",))
    add("fmt json", ["fmt", "--output", "json", F.show_noisy(tree, rng)], 0,
        json={"definitions": {}, "formula": F.show(tree), "ast": F.to_json_ast(tree)})
    add("fmt program file", ["fmt", "--defs", files["plain"]], 0,
        stdout=F.show_program({"y": _f(p)}, ("ref", "y")))

    # eval
    add("eval README m", ["eval", "--matrix", "m", "--assign", "p=1", "[think](p)"], 0,
        stdout="1/2 successful-performance")
    for output in ("text", "json") * 3:
        tree = F.random_tree(rng, 12, ("p", "q"), ("think",))
        env = {name: rng.randint(0, 1) for name in O.atoms_of(tree)}
        value = O.eval4(tree, env)
        argv = ["eval", "--matrix", "m", "--output", output, F.show(tree)]
        for name, bit in env.items():
            argv += ["--assign", f"{name}={bit}"]
        if output == "text":
            add("eval m", argv, 0, stdout=f"{value} {O.CLASSIFICATION[value]}")
        else:
            add("eval m json", argv, 0,
                json={"value": value, "classification": O.CLASSIFICATION[value]})
    for name, (path, tree, k, mode, assignment) in files["valuations"].items():
        expect = O.eval_mb(F.to_ast(tree), algebra(k), mode, assignment)
        flag = "admissible" if expect["admissible"] else "inadmissible"
        add(f"eval mb {name}", ["eval", "--matrix", "mb", "--valuation", path, F.show(tree)], 0,
            stdout=f"{expect['value_str']} {flag}")

    # table
    for _ in range(2):
        tree = F.random_tree(rng, 9, ("p", "q", "r"), ("think",))
        lines = []
        for env in O.assignments(O.atoms_of(tree)):
            value = O.eval4(tree, env)
            lines.append(" ".join(f"{a}={b}" for a, b in env.items())
                         + f"  {value}  {O.CLASSIFICATION[value]}")
        add("table m", ["table", "--matrix", "m", F.show(tree)], 0, stdout="\n".join(lines))
    for k, tree in ((1, SCHEMAS["force-detachment"]), (2, SCHEMAS["neg-force-detachment"])):
        rows = O.table_mb(F.to_ast(tree), algebra(k), "pointwise")
        add(f"table mb K{k}", ["table", "--matrix", "mb", "--algebra", ",".join(algebra(k)),
                               "--output", "json", F.show(tree)], 0, json={"rows": rows})

    # taut, matrix m
    add("taut README m 1", ["taut", "--matrix", "m", "[think](p) -> p"], 0, stdout="tautology",
        full_scan=2)
    add("taut README m 2", ["taut", "--matrix", "m", "p -> [think](p)"], 1,
        stdout="refuted at p=0 with value 1/2")
    for output in ("text", "json") * 3:
        tree = F.random_tree(rng, 14, ("p", "q", "r"), ("think",))
        add(f"taut m {output}", ["taut", "--matrix", "m", "--output", output, F.show(tree)],
            **_taut_m_expect(tree, output))

    # taut, matrix mb: fixed scans at three atoms; seeded cells at one and two
    # atoms, all of them tautologies at one atom or early refutations
    cells = [(k, schema, mode) for k in (1, 2) for schema in SCHEMAS for mode in MODES]
    verdicts = {c: O.taut_mb(F.to_ast(SCHEMAS[c[1]]), algebra(c[0]), c[2]) for c in cells}
    held = [c for c in cells if c[0] == 1 and verdicts[c]["status"] == "tautology"]
    refuted = [c for c in cells if verdicts[c].get("index", EARLY) < EARLY]
    chosen = [(3, schema, mode) for schema, mode in FIXED_SCANS]
    for k, schema, mode in chosen + rng.sample(held, 2) + rng.sample(refuted, 4):
        tree = SCHEMAS[schema]
        expect = verdicts.get((k, schema, mode)) or O.taut_mb(F.to_ast(tree), algebra(k), mode)
        output = rng.choice(("text", "json"))
        argv = ["taut", "--matrix", "mb", "--algebra", ",".join(algebra(k)), "--mode", mode,
                "--output", output, F.show(tree)]
        add(f"taut mb K{k} {schema} {mode}", argv, **_taut_mb_expect(tree, mode, expect, output))

    # check-matrix
    laws = O.matrix_laws()
    add("check-matrix", ["check-matrix"], 1, stdout="\n".join(
        f"{'PASS' if holds else 'FAIL'} {law_id} ({checked - len(bad)}/{checked} tuples)"
        for law_id, holds, checked, bad in laws))
    add("check-matrix json", ["check-matrix", "--output", "json"], 1, json={
        "properties": [{"id": law_id, "holds": holds, "checked": checked,
                        "violations": [list(t) for t in bad]}
                       for law_id, holds, checked, bad in laws],
        "all_hold": False,
    })

    # square
    square = O.square_m("think", "p")
    add("square m", ["square", "--matrix", "m"], 0 if square["square_holds"] else 1,
        has_line=f"square holds: {'yes' if square['square_holds'] else 'no'}")
    atoms = algebra(2)
    for table in rng.sample(O.generators(atoms), 2):
        on_true, on_false = O.value_json(atoms, table).values()
        square = O.square_mb("f", "p", atoms, "pointwise", generator=table)
        add("square mb generator", ["square", "--force", "f", "--output", "json", "--gen",
                                    f"on_true={','.join(on_true)};on_false={','.join(on_false)}"],
            0 if square["square_holds"] else 1, json=square)
    square = O.square_mb("f", "p", algebra(4), "connective")
    add("square mb quantified K4", ["square", "--matrix", "mb", "--algebra", ",".join(algebra(4)),
                                    "--mode", "connective", "--force", "f", "--output", "json"],
        0 if square["square_holds"] else 1, json=square)

    # entail
    add("entail README m", ["entail", "--matrix", "m", "[think](p)", "p"], 0, stdout="entails",
        full_scan=2)
    for _ in range(6):
        left = F.random_tree(rng, 8, ("p", "q"), ("think",))
        right = F.random_tree(rng, 8, ("p", "q"), ("think",))
        expect = O.entails_m(left, right)
        add("entail m json", ["entail", "--matrix", "m", "--output", "json",
                              F.show(left), F.show(right)],
            0 if expect["holds"] else 1,
            json={"holds": expect["holds"], "witness": expect.get("witness"),
                  "left_value": expect.get("left"), "right_value": expect.get("right")},
            full_scan=expect.get("space", 0))
    # the square criterion, which fails at two atoms, and a full scan of 3136
    # valuations split over two threads
    for k, jobs, name, mode in ((2, "1", "criterion", "pointwise"), (3, "2", "and-split", "connective")):
        left, right = ENTAILMENTS[name]
        expect = O.entails_mb(F.to_ast(left), F.to_ast(right), algebra(k), mode)
        space = expect.pop("space", 0)
        add(f"entail mb K{k} {name} {mode} jobs={jobs}",
            ["entail", "--matrix", "mb", "--algebra", ",".join(algebra(k)), "--mode", mode,
             "--jobs", jobs, "--output", "json", F.show(left), F.show(right)],
            0 if expect["holds"] else 1, json=expect, full_scan=space)

    # unfold
    for seed_bit in (0, 1, rng.randint(0, 1)):
        steps = rng.randint(1, 6)
        add(f"unfold steps={steps} seed={seed_bit}",
            ["unfold", "--defs", files["cyclic"], "--act", "x", "--steps", str(steps),
             "--seed", f"standard:{seed_bit}"], 0,
            stdout=O.unfold_self_denial(algebra(2), steps, seed_bit))

    # bad input and its documented exit codes
    for text in rng.sample(["p &", "[f(p)", "p $ q", "(p | q", "~", "p q"], 4):
        add(f"parse error {text!r}", ["taut", "--matrix", "m", text], 2, stderr="parse error")
    add("cyclic act", ["taut", "--matrix", "mb", "--defs", files["cyclic"]], 3, stderr="error")
    add("missing atom", ["eval", "--matrix", "m", "--assign", "p=1", "p & q"], 3, stderr="error")
    add("unknown act", ["unfold", "--defs", files["plain"], "--act", "nosuch", "--steps", "2",
                        "--seed", "standard:0"], 3, stderr="error")
    for k in (5, 6, 7):
        add(f"over budget {k} atoms",
            ["taut", "--matrix", "mb", "--algebra", ",".join(algebra(k)), "--budget", "1000",
             "[f](p) -> p"], 4, stderr="budget exceeded")

    # deep nesting, a few hundred levels: the answer, or a documented refusal
    # (exit 2 or 3 with a message) from a depth limit. Two of these raise
    # RecursionError at the seed commit; that error, on those two checks
    # only, is a known failure rather than a wrong answer.
    deep_ok = {"refusal_exits": [2, 3]}
    add("fmt 150 parentheses", ["fmt", "(" * 150 + "p" + ")" * 150], 0, stdout="p", **deep_ok)
    add("fmt 300 parentheses", ["fmt", "(" * 300 + "p" + ")" * 300], 0, stdout="p",
        known_error="RecursionError", **deep_ok)
    for kind, known_error in (("not", None), ("force", "RecursionError")):
        deep = F.nested(kind, 300)
        add(f"taut 300 {'negations' if kind == 'not' else 'forces'}",
            ["taut", "--matrix", "m", F.show(deep)], known_error=known_error,
            **_taut_m_expect(deep, "text"), **deep_ok)

    rng.shuffle(deck)
    return deck


def _taut_m_expect(tree, output):
    expect = O.taut_m(tree)
    code = 0 if expect["status"] == "tautology" else 1
    full = expect.get("space", 0)
    if output == "json":
        witness = None if code == 0 else {"atom_values": expect["witness"]}
        return {"exit_code": code, "json": {"formula": F.show(tree), "matrix": "m",
                                            "status": expect["status"], "witness": witness,
                                            "value": expect.get("value")},
                "full_scan": full}
    if code == 0:
        return {"exit_code": 0, "stdout": "tautology", "full_scan": full}
    shown = " ".join(f"{a}={b}" for a, b in sorted(expect["witness"].items()))
    return {"exit_code": 1, "stdout": f"refuted at {shown} with value {expect['value']}"}


def _taut_mb_expect(tree, mode, expect, output):
    full = expect.get("space", 0)
    code = 0 if expect["status"] == "tautology" else 1
    if output == "json":
        return {"exit_code": code, "full_scan": full, "json": {
            "formula": F.show(tree), "matrix": "mb", "mode": mode, "status": expect["status"],
            "witness": expect.get("witness"), "value": expect.get("value"),
        }}
    if code == 0:
        return {"exit_code": 0, "stdout": "tautology", "full_scan": full}
    return {"exit_code": 1, "lines": [
        f"refuted with value {expect['value_str']}",
        {"prefix": "witness: ", "json": expect["witness"]},
    ]}


def _write_cli_files(rng, workdir):
    os.makedirs(workdir, exist_ok=True)
    files = {"cyclic": os.path.join(workdir, "cyclic.illoc"),
             "plain": os.path.join(workdir, "plain.illoc"), "valuations": {}}
    with open(files["cyclic"], "w", encoding="utf-8") as handle:
        handle.write(CYCLIC_PROGRAM)
    with open(files["plain"], "w", encoding="utf-8") as handle:
        handle.write(PLAIN_PROGRAM)
    tree = SCHEMAS["force-detachment"]
    for k, mode in ((2, "pointwise"), (3, "connective")):
        atoms = algebra(k)
        gens = O.generators(atoms)
        els = O.elements(atoms)
        assignment = {("atom", "p"): rng.choice(els), ("gen", "f", "p"): rng.choice(gens)}
        valuation = O.valuation_json(atoms, mode, assignment)
        path = os.path.join(workdir, f"valuation_k{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(valuation, handle)
        files["valuations"][f"K{k} {mode}"] = (path, tree, k, mode, assignment)
    return files


# Every builder takes (seed, workdir); only cli_session writes files there.
WORKLOADS = {"findings": findings, "wide_m": wide_m, "cli_session": cli_session}
