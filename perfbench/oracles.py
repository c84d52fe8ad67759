"""Expected answers from sources other than the code under test.

* Matrix `m`: a four-valued table oracle written here. The tables spell out
  the matrix as the README describes it (classical values 1 and 0,
  performance values 1/2 and -1/2, conjunction and disjunction swapped on
  pairs of performance values, only 1 designated). `check_tables` tests them
  against the facts the README states.
* Matrix `mb`: the function-table oracle in `tests/mb_oracle.py`, which never
  touches the package's pair representation or evaluator. The scans below
  reuse its slots, evaluation and order, and add what its `oracle_status`
  leaves out: the first witness as a valuation, the value there, difference
  and entailment scans, and the square of opposition.

Witness order is the documented one: slots in evaluation order, the first
slot most significant; in `m`, atoms sorted by name with 0 before 1.
"""

from __future__ import annotations

import itertools

import formulas as F
from mb_oracle import (
    const_table,
    elements,
    is_const,
    oracle_eval,
    oracle_slots,
    t_content_neg,
    t_inf,
    t_leq,
    t_neg,
    t_sup,
)

# --- the four-valued matrix as tables ---

ONE, HALF, ZERO, NEG_HALF = "1", "1/2", "0", "-1/2"
CARRIER = (ONE, HALF, ZERO, NEG_HALF)
RANK = {NEG_HALF: 0, ZERO: 1, HALF: 2, ONE: 3}
CLASSIFICATION = {
    ONE: "true-sentence",
    ZERO: "false-sentence",
    HALF: "successful-performance",
    NEG_HALF: "unsuccessful-performance",
}
NEG4 = {ONE: ZERO, HALF: NEG_HALF, ZERO: ONE, NEG_HALF: HALF}
FORCE4 = {ONE: HALF, HALF: HALF, ZERO: NEG_HALF, NEG_HALF: NEG_HALF}


def _table(rows):
    return {(x, y): rows[i][j] for i, x in enumerate(CARRIER) for j, y in enumerate(CARRIER)}


# rows and columns in CARRIER order: 1, 1/2, 0, -1/2
AND4 = _table([
    [ONE, HALF, ZERO, NEG_HALF],
    [HALF, HALF, ZERO, HALF],
    [ZERO, ZERO, ZERO, NEG_HALF],
    [NEG_HALF, HALF, NEG_HALF, NEG_HALF],
])
OR4 = _table([
    [ONE, ONE, ONE, ONE],
    [ONE, HALF, HALF, NEG_HALF],
    [ONE, HALF, ZERO, ZERO],
    [ONE, NEG_HALF, ZERO, NEG_HALF],
])
IMP4 = _table([
    [ONE, HALF, ZERO, NEG_HALF],
    [ONE, ONE, HALF, ZERO],
    [ONE, ONE, ONE, HALF],
    [ONE, ONE, ONE, ONE],
])
_BINARY = {"and": AND4, "or": OR4, "imp": IMP4}


def leq4(x, y) -> bool:
    return RANK[x] <= RANK[y]


def eval4(tree, env: dict) -> str:
    """Value of an act-free tree under a 0/1 atom assignment."""
    kind = tree[0]
    if kind == "atom":
        return ONE if env[tree[1]] else ZERO
    if kind == "not":
        return NEG4[eval4(tree[1], env)]
    if kind == "force":
        return FORCE4[eval4(tree[2], env)]
    return _BINARY[kind][eval4(tree[1], env), eval4(tree[2], env)]


def atoms_of(tree, found=None) -> list:
    found = {} if found is None else found
    kind = tree[0]
    if kind == "atom":
        found.setdefault(tree[1])
    elif kind == "force":
        atoms_of(tree[2], found)
    elif kind == "not":
        atoms_of(tree[1], found)
    elif kind != "ref":
        atoms_of(tree[1], found)
        atoms_of(tree[2], found)
    return list(found)


def assignments(names):
    names = sorted(names)
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def taut_m(tree) -> dict:
    """First refuting assignment of an act-free tree, or a full scan."""
    names = atoms_of(tree)
    for env in assignments(names):
        value = eval4(tree, env)
        if value != ONE:
            return {"status": "refuted", "witness": env, "value": value}
    return {"status": "tautology", "space": 2 ** len(names)}


def entails_m(left, right) -> dict:
    names = sorted(set(atoms_of(left)) | set(atoms_of(right)))
    for env in assignments(names):
        lv, rv = eval4(left, env), eval4(right, env)
        if not leq4(lv, rv):
            return {"holds": False, "witness": {"atom_values": env}, "left": lv, "right": rv}
    return {"holds": True, "space": 2 ** len(names)}


LAWS = (
    ("force-deflates", 1, lambda a: leq4(FORCE4[a], a)),
    ("neg-force-deflates", 1, lambda a: leq4(NEG4[FORCE4[a]], NEG4[a])),
    ("and-superdistributes", 2,
     lambda a, b: leq4(FORCE4[AND4[a, b]], AND4[FORCE4[a], FORCE4[b]])),
    ("or-subdistributes", 2,
     lambda a, b: leq4(OR4[FORCE4[a], FORCE4[b]], FORCE4[OR4[a, b]])),
    ("imp-superdistributes", 2,
     lambda a, b: leq4(FORCE4[IMP4[a, b]], IMP4[FORCE4[a], FORCE4[b]])),
    ("force-idempotent", 1, lambda a: FORCE4[FORCE4[a]] == FORCE4[a]),
    ("force-neg-commutes", 1, lambda a: NEG4[FORCE4[a]] == FORCE4[NEG4[a]]),
)


def matrix_laws() -> list:
    """(id, holds, tuples checked, violating tuples) for the seven laws."""
    out = []
    for law_id, arity, predicate in LAWS:
        tuples = list(itertools.product(CARRIER, repeat=arity))
        bad = [t for t in tuples if not predicate(*t)]
        out.append((law_id, not bad, len(tuples), bad))
    return out


def square_m(verb: str, name: str) -> dict:
    """The square report for one force in `m`, from its definitions."""
    p = F.atom(name)
    pos, neg_content = F.force(verb, p), F.force(verb, F.neg(p))
    not_neg_content, not_pos = F.neg(neg_content), F.neg(pos)

    def success(tree, env):
        return eval4(tree, env) == HALF

    def failure(tree, env):
        return eval4(tree, env) == NEG_HALF

    conditions = {
        "contrary": lambda e: not (success(pos, e) and success(neg_content, e)),
        "contradictory": lambda e: success(pos, e) == failure(not_pos, e)
        and success(neg_content, e) == failure(not_neg_content, e),
        "subcontrary": lambda e: not (failure(not_pos, e) and failure(not_neg_content, e)),
        "subaltern_left": lambda e: success(not_neg_content, e) if success(pos, e) else True,
        "subaltern_right": lambda e: success(not_pos, e) if success(neg_content, e) else True,
    }
    relations = {}
    for relation, condition in conditions.items():
        relations[relation] = {"holds": True, "witness": None}
        for bit in (0, 1):
            if not condition({name: bit}):
                relations[relation] = {"holds": False, "witness": {"atom_values": {name: bit}}}
                break
    criterion = entails_m(neg_content, not_pos)["holds"]
    excluded_middle, contrariety = _laws_trees(verb, name)
    rows = []
    for bit in (0, 1):
        v8, v9 = eval4(excluded_middle, {name: bit}), eval4(contrariety, {name: bit})
        rows.append({
            "label": f"{name}={bit}",
            "tertium_non_datur": {"value": v8, "designated": v8 == ONE},
            "law_of_contrary": {"value": v9, "designated": v9 == ONE},
        })
    return {
        "square_holds": criterion,
        "criterion_holds": criterion,
        "relations": relations,
        "laws": _laws_summary(rows),
    }


def _laws_trees(verb, name):
    p = F.atom(name)
    excluded_middle = F.disj(F.neg(F.force(verb, F.neg(p))), F.neg(F.force(verb, p)))
    contrariety = F.neg(F.conj(F.force(verb, F.neg(p)), F.force(verb, p)))
    return excluded_middle, contrariety


def _laws_summary(rows):
    return {
        "rows": rows,
        "tertium_non_datur_always_designated": all(r["tertium_non_datur"]["designated"] for r in rows),
        "law_of_contrary_always_designated": all(r["law_of_contrary"]["designated"] for r in rows),
        "values_coincide": all(
            r["tertium_non_datur"]["value"] == r["law_of_contrary"]["value"] for r in rows
        ),
    }


def check_tables() -> None:
    """Refuse to run if the tables contradict the facts the README states."""
    laws = matrix_laws()
    failing = [(law_id, bad) for law_id, holds, _, bad in laws if not holds]
    facts = [
        (failing == [("imp-superdistributes", [(HALF, ZERO)])],
         "exactly one law fails, at (1/2, 0)"),
        (taut_m(F.imp(F.force("think", F.atom("p")), F.atom("p")))["status"] == "tautology",
         "[think](p) -> p is a tautology"),
        (taut_m(F.imp(F.atom("p"), F.force("think", F.atom("p"))))
         == {"status": "refuted", "witness": {"p": 0}, "value": HALF},
         "p -> [think](p) is refuted at p=0"),
        (eval4(F.force("think", F.atom("p")), {"p": 1}) == HALF, "[think](p) at p=1 is 1/2"),
        (entails_m(F.force("think", F.atom("p")), F.atom("p"))["holds"], "[think](p) entails p"),
        (all(r["tertium_non_datur"]["value"] == NEG_HALF and r["law_of_contrary"]["value"] == NEG_HALF
             for r in square_m("think", "p")["laws"]["rows"]),
         "both square corollaries are -1/2 in m"),
    ]
    for ok, fact in facts:
        if not ok:
            raise RuntimeError(f"four-valued oracle contradicts the README: {fact}")


# --- the nonstandard matrix through tests/mb_oracle.py ---


def _el_json(atoms, el) -> list:
    return [a for a in atoms if a in el]


def value_json(atoms, table) -> dict:
    if is_const(table):
        return {"standard": _el_json(atoms, table[0])}
    return {"on_true": _el_json(atoms, table[-1]), "on_false": _el_json(atoms, table[0])}


def value_str(atoms, table) -> str:
    def el(e):
        return "{" + ",".join(_el_json(atoms, e)) + "}"

    if is_const(table):
        c = table[0]
        if not c:
            return "*0"
        if len(c) == len(atoms):
            return "*1"
        return "*" + el(c)
    return f"<{el(table[-1])},{el(table[0])}>"


def valuation_json(atoms, mode, assignment) -> dict:
    """An oracle assignment in the documented valuation JSON schema."""
    data = {
        "algebra": {"atoms": list(atoms)},
        "mode": mode,
        "atom_values": {},
        "act_values": {},
        "generators": {},
        "signatures": {},
    }
    for key, value in assignment.items():
        if key[0] == "atom":
            data["atom_values"][key[1]] = _el_json(atoms, value)
        elif key[0] == "act":
            data["act_values"][show_ast(key[1])] = value_json(atoms, value)
        elif key[0] == "gen":
            data["generators"].setdefault(key[1], {})[key[2]] = value_json(atoms, value)
        else:
            data["signatures"][key[1]] = value_json(atoms, value)
    return data


def show_ast(node) -> str:
    """Canonical text of a package AST node (used for free-mode act keys)."""
    return F.show(from_ast(node))


def from_ast(node):
    kind = type(node).__name__
    if kind == "Atom":
        return F.atom(node.name)
    if kind == "ActRef":
        return ("ref", node.name)
    if kind == "Not":
        return F.neg(from_ast(node.body))
    if kind == "Force":
        return F.force(node.force, from_ast(node.content))
    tag = {"And": "and", "Or": "or", "Implies": "imp"}[kind]
    return (tag, from_ast(node.left), from_ast(node.right))


def _scan(slots, visit):
    """First index (mixed radix, first slot most significant) where visit hits."""
    total = 1
    for _, domain in slots:
        total *= len(domain)
    for index in range(total):
        rest, assignment = index, {}
        for key, domain in reversed(slots):
            rest, choice = divmod(rest, len(domain))
            assignment[key] = domain[choice]
        assignment = {key: assignment[key] for key, _ in slots}
        payload = visit(assignment)
        if payload is not None:
            return index, assignment, payload, total
    return None, None, None, total


def _evaluate(ast, atoms, mode, assignment):
    subvalues: list = []
    value = oracle_eval(ast, atoms, mode, assignment, subvalues)
    return value, not any(is_const(t) for t in subvalues)


def space_mb(asts, atoms, mode) -> int:
    total = 1
    for _, domain in oracle_slots(_joined(asts), atoms, mode):
        total *= len(domain)
    return total


def _joined(asts):
    from illoc.syntax import And

    joined = asts[0]
    for ast in asts[1:]:
        joined = And(joined, ast)
    return joined


def taut_mb(ast, atoms, mode) -> dict:
    """First admissible valuation whose value is not the standard top."""
    top = const_table(atoms, frozenset(atoms))

    def refutes(assignment):
        value, admissible = _evaluate(ast, atoms, mode, assignment)
        return value if admissible and value != top else None

    index, assignment, value, total = _scan(oracle_slots(ast, atoms, mode), refutes)
    if index is None:
        return {"status": "tautology", "space": total}
    return {
        "status": "refuted",
        "index": index,
        "witness": valuation_json(atoms, mode, assignment),
        "value": value_json(atoms, value),
        "value_str": value_str(atoms, value),
    }


def difference_mb(left, right, atoms, mode, complementary_only=False) -> dict:
    """First joint valuation where two formulas differ (no admissibility filter)."""
    slots = oracle_slots(_joined([left, right]), atoms, mode)
    if complementary_only:
        top = frozenset(atoms)
        slots = [
            (key, [t for t in domain if t[0] == top - t[-1]] if key[0] in ("gen", "act") else domain)
            for key, domain in slots
        ]

    def differs(assignment):
        lv, _ = _evaluate(left, atoms, mode, assignment)
        rv, _ = _evaluate(right, atoms, mode, assignment)
        return (lv, rv) if lv != rv else None

    index, assignment, payload, total = _scan(slots, differs)
    if index is None:
        return {"found": False, "space": total}
    return {
        "found": True,
        "witness": valuation_json(atoms, mode, assignment),
        "left_value": value_json(atoms, payload[0]),
        "right_value": value_json(atoms, payload[1]),
    }


def entails_mb(left, right, atoms, mode) -> dict:
    """First valuation, admissible for both sides, where left exceeds right."""
    def violates(assignment):
        lv, la = _evaluate(left, atoms, mode, assignment)
        rv, ra = _evaluate(right, atoms, mode, assignment)
        if not (la and ra):
            return None
        return (lv, rv) if not t_leq(atoms, lv, rv) else None

    index, assignment, payload, total = _scan(
        oracle_slots(_joined([left, right]), atoms, mode), violates
    )
    if index is None:
        return {"holds": True, "witness": None, "left_value": None, "right_value": None,
                "space": total}
    return {
        "holds": False,
        "witness": valuation_json(atoms, mode, assignment),
        "left_value": value_str(atoms, payload[0]),
        "right_value": value_str(atoms, payload[1]),
    }


def eval_mb(ast, atoms, mode, assignment) -> dict:
    value, admissible = _evaluate(ast, atoms, mode, assignment)
    return {"value_str": value_str(atoms, value), "admissible": admissible}


def table_mb(ast, atoms, mode) -> list:
    """(valuation, value) for every admissible valuation, in index order."""
    rows = []

    def collect(assignment):
        value, admissible = _evaluate(ast, atoms, mode, assignment)
        if admissible:
            rows.append({"valuation": valuation_json(atoms, mode, assignment),
                         "value": value_json(atoms, value)})
        return None

    _scan(oracle_slots(ast, atoms, mode), collect)
    return rows


def generators(atoms) -> list:
    """Nonstandard values as tables, in the documented order (u, then v)."""
    els = elements(atoms)
    top = frozenset(atoms)
    return [
        tuple((u & a) | (v & (top - a)) for a in els)
        for u in els for v in els if u != v
    ]


def square_relations(atoms, table) -> dict:
    """The square relations of one act value, by their stated definitions."""
    bot, top = const_table(atoms, frozenset()), const_table(atoms, frozenset(atoms))
    cn = t_content_neg(atoms, table)
    neg, neg_cn = t_neg(atoms, table), t_neg(atoms, t_content_neg(atoms, table))
    return {
        "holds": t_leq(atoms, cn, neg),
        "contrary": t_inf(table, cn) == bot,
        "contradictory": t_inf(table, neg) == bot and t_sup(table, neg) == top,
        "subcontrary": t_sup(neg_cn, neg) == top,
        "subaltern_left": t_leq(atoms, table, neg_cn),
        "subaltern_right": t_leq(atoms, cn, neg),
    }


def square_mb(verb, name, atoms, mode, generator=None) -> dict:
    """Square report for one generator, or quantified over every generator."""
    tables = generators(atoms) if generator is None else [generator]
    relations = {}
    per_table = [square_relations(atoms, t) for t in tables]
    for relation in ("contrary", "contradictory", "subcontrary", "subaltern_left", "subaltern_right"):
        relations[relation] = {"holds": True, "witness": None}
        for table, report in zip(tables, per_table):
            if not report[relation]:
                relations[relation] = {
                    "holds": False, "witness": {"generator": value_json(atoms, table)},
                }
                break
    rows = []
    excluded_middle, contrariety = (F.to_ast(t) for t in _laws_trees(verb, name))
    top = const_table(atoms, frozenset(atoms))
    for table in tables:
        assignment = {("gen", verb, name): table}
        v8, _ = _evaluate(excluded_middle, atoms, mode, assignment)
        v9, _ = _evaluate(contrariety, atoms, mode, assignment)
        rows.append({
            "label": f"generator={value_str(atoms, table)}",
            "tertium_non_datur": {"value": value_str(atoms, v8), "designated": v8 == top},
            "law_of_contrary": {"value": value_str(atoms, v9), "designated": v9 == top},
        })
    holds = all(r["holds"] for r in per_table)
    return {
        "square_holds": holds,
        "criterion_holds": holds,
        "relations": relations,
        "laws": _laws_summary(rows),
    }


def unfold_self_denial(atoms, steps: int, seed_bit: int) -> str:
    """`act x = [promise](~x)` unfolded `steps` times from a standard seed.

    The unfolding reads each nested force as its signature implying the inner
    value pointwise (~sig | inner), with the default signature that puts the
    first algebra atom on true and nothing on false; both are the documented
    rules of `unfold`.
    """
    els = elements(atoms)
    top = frozenset(atoms)
    sig = tuple((frozenset(atoms[:1]) & a) for a in els)
    value = const_table(atoms, top if seed_bit else frozenset())
    for _ in range(steps):
        value = t_sup(t_neg(atoms, sig), t_neg(atoms, value))
    return value_str(atoms, value)
