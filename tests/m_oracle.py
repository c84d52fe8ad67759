"""Independent oracle for the four-valued matrix m: the README's tables as literals.

Values are the strings "1", "1/2", "0" and "-1/2"; the tables below are typed
in from the README, not computed, and the order is the numeric one. From the
package this module imports only the AST node classes: evaluation, the scan
order and the verdicts are written out here again, so that a test comparing
the package with this module compares two independent implementations.
"""

from __future__ import annotations

import itertools

from illoc.syntax import And, Atom, Force, Implies, Not, Or

ONE, HALF, ZERO, NEG_HALF = "1", "1/2", "0", "-1/2"
CARRIER = (ONE, HALF, ZERO, NEG_HALF)
RANK = {NEG_HALF: 0, ZERO: 1, HALF: 2, ONE: 3}  # -1/2 < 0 < 1/2 < 1

T_NEG = {ONE: ZERO, HALF: NEG_HALF, ZERO: ONE, NEG_HALF: HALF}
T_FORCE = {ONE: HALF, HALF: HALF, ZERO: NEG_HALF, NEG_HALF: NEG_HALF}


def _table(rows):
    """A binary table from its rows; rows and columns in CARRIER order."""
    return {(x, y): rows[i][j] for i, x in enumerate(CARRIER) for j, y in enumerate(CARRIER)}


T_AND = _table([
    [ONE, HALF, ZERO, NEG_HALF],
    [HALF, HALF, ZERO, HALF],
    [ZERO, ZERO, ZERO, NEG_HALF],
    [NEG_HALF, HALF, NEG_HALF, NEG_HALF],
])
T_OR = _table([
    [ONE, ONE, ONE, ONE],
    [ONE, HALF, HALF, NEG_HALF],
    [ONE, HALF, ZERO, ZERO],
    [ONE, NEG_HALF, ZERO, NEG_HALF],
])
T_IMP = _table([
    [ONE, HALF, ZERO, NEG_HALF],
    [ONE, ONE, HALF, ZERO],
    [ONE, ONE, ONE, HALF],
    [ONE, ONE, ONE, ONE],
])


def t_leq(x: str, y: str) -> bool:
    return RANK[x] <= RANK[y]


def oracle_eval(f, assignment: dict) -> str:
    """The value of an act-free formula under a 0/1 assignment of its atoms."""
    if isinstance(f, Atom):
        return ONE if assignment[f.name] == 1 else ZERO
    if isinstance(f, Not):
        return T_NEG[oracle_eval(f.body, assignment)]
    if isinstance(f, Force):
        return T_FORCE[oracle_eval(f.content, assignment)]
    table = {And: T_AND, Or: T_OR, Implies: T_IMP}[type(f)]
    return table[oracle_eval(f.left, assignment), oracle_eval(f.right, assignment)]


def oracle_atoms(f) -> set:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return oracle_atoms(f.body)
    if isinstance(f, Force):
        return oracle_atoms(f.content)
    return oracle_atoms(f.left) | oracle_atoms(f.right)


def oracle_assignments(*formulas):
    """Every 0/1 assignment of the formulas' sorted atoms, in scan order.

    The first atom is the most significant, and 0 comes before 1.
    """
    names = sorted(set().union(*map(oracle_atoms, formulas)))
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def oracle_tautology(f):
    """("tautology", None, None) or ("refuted", first witness, its value)."""
    for assignment in oracle_assignments(f):
        value = oracle_eval(f, assignment)
        if value != ONE:
            return "refuted", assignment, value
    return "tautology", None, None


def oracle_entails(left, right):
    """(holds, first witness, left value, right value) of value(left) <= value(right).

    The scan runs over every assignment of both formulas' atoms.
    """
    for assignment in oracle_assignments(left, right):
        lhs, rhs = oracle_eval(left, assignment), oracle_eval(right, assignment)
        if not t_leq(lhs, rhs):
            return False, assignment, lhs, rhs
    return True, None, None, None
