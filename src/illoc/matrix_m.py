"""The four-valued matrix for the single performative verb "think".

Sentences take the classical values 1 and 0; performances take 1/2
(successful) and -1/2 (unsuccessful). On a pair of performance values the
roles of conjunction and disjunction swap; that dualization is what warps
inference as soon as a force is applied. Every force symbol in a formula is
read as the one "think" operator here.

The connectives below are the one definition of the matrix. Evaluation runs
on codes derived from them: `eval_m` and `scan_m` lower their formulas once
into one register program, run it through `MScan.run`, the matrix's one loop
(over one assignment for `eval_m`), and decode a value to `TruthValue4` only
for a result a caller keeps. Each instruction indexes its 16-entry code table
with no call and, after the first assignment, runs only when an atom it reads
has changed. A tautology check and entailment split their verdict into a
mask, a 16-entry 0/1 table over the codes of their roots that runs as the
program's last instruction, and a payload, the one Python call, made only
where the mask is 1.
Act references are inlined first, and only when there are definitions: with
none, lowering raises UnknownActRef at the first reference.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from .program import Program
from .record import Record
from .search import DEFAULT_BUDGET, check_budget
from .syntax import (
    ActRef, And, Atom, Force, Formula, Implies, Not, Or, UnknownActRef, inline_acts,
)

if TYPE_CHECKING:
    from fractions import Fraction


class MissingAtom(ValueError):
    """The assignment does not cover an atom of the formula."""

    def __str__(self) -> str:
        return f"no value for atom {self.args[0]!r}"


@functools.total_ordering
class TruthValue4(Enum):
    # a value counts halves, so int order is value order
    ONE = 2
    HALF = 1
    ZERO = 0
    NEG_HALF = -1

    @property
    def rational(self) -> Fraction:
        from fractions import Fraction  # off the start-up path: no command needs it

        return Fraction(self.value, 2)

    def __lt__(self, other: "TruthValue4") -> bool:
        if not isinstance(other, TruthValue4):
            return NotImplemented
        return self.value < other.value

    def __str__(self) -> str:
        return _TEXT[self.value]


_TEXT = {2: "1", 1: "1/2", 0: "0", -1: "-1/2"}


CARRIER = (TruthValue4.ONE, TruthValue4.HALF, TruthValue4.ZERO, TruthValue4.NEG_HALF)

CLASSIFICATION = {
    TruthValue4.ONE: "true-sentence",
    TruthValue4.ZERO: "false-sentence",
    TruthValue4.HALF: "successful-performance",
    TruthValue4.NEG_HALF: "unsuccessful-performance",
}

def _is_performance(x: TruthValue4) -> bool:
    return x in (TruthValue4.HALF, TruthValue4.NEG_HALF)


def neg4(x: TruthValue4) -> TruthValue4:
    if x in (TruthValue4.ONE, TruthValue4.ZERO):
        return TruthValue4(2 - x.value)
    return TruthValue4(-x.value)


def force4(x: TruthValue4) -> TruthValue4:
    """Performing a content: classical values drop by a half, performances stay."""
    if x in (TruthValue4.ONE, TruthValue4.ZERO):
        return TruthValue4(x.value - 1)
    return x


def imp4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    if x <= y:
        return TruthValue4.ONE
    if x == TruthValue4.ONE:
        return y
    if x == TruthValue4.ZERO or y == TruthValue4.ZERO:
        return TruthValue4.HALF
    return TruthValue4.ZERO


def or4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    if _is_performance(x) and _is_performance(y):
        return min(x, y)
    return max(x, y)


def and4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    if _is_performance(x) and _is_performance(y):
        return max(x, y)
    return min(x, y)


def classify(v: TruthValue4) -> str:
    return CLASSIFICATION[v]


# --- codes: the values of the register program ---

# A value's code is its index in CARRIER; ONE_CODE is the one designated
# value. The tables are derived from the connectives above, which stay the one
# definition of each: a unary table is indexed by the operand's code, a binary
# one by 4 * left + right.
CODE = {v: i for i, v in enumerate(CARRIER)}
ONE_CODE, HALF_CODE, ZERO_CODE, NEG_HALF_CODE = (CODE[v] for v in CARRIER)
NEG_TABLE = tuple(CODE[neg4(x)] for x in CARRIER)
FORCE_TABLE = tuple(CODE[force4(x)] for x in CARRIER)
AND_TABLE, OR_TABLE, IMP_TABLE = (
    tuple(CODE[op(x, y)] for x in CARRIER for y in CARRIER) for op in (and4, or4, imp4)
)
LEQ_TABLE = tuple(x <= y for x in CARRIER for y in CARRIER)

# The square's five relations and its criterion on the codes of its corners
# F(p), F(~p), ~F(~p), ~F(p), in that order: success is 1/2, failure -1/2.
SQUARE_RELATIONS: dict[str, Callable[[int, int, int, int], bool]] = {
    "contrary": lambda fp, fnp, nfnp, nfp: not (fp == HALF_CODE and fnp == HALF_CODE),
    "contradictory": lambda fp, fnp, nfnp, nfp: (
        (fp == HALF_CODE) == (nfp == NEG_HALF_CODE)
        and (fnp == HALF_CODE) == (nfnp == NEG_HALF_CODE)
    ),
    "subcontrary": lambda fp, fnp, nfnp, nfp: not (nfp == NEG_HALF_CODE and nfnp == NEG_HALF_CODE),
    "subaltern_left": lambda fp, fnp, nfnp, nfp: fp != HALF_CODE or nfnp == HALF_CODE,
    "subaltern_right": lambda fp, fnp, nfnp, nfp: fnp != HALF_CODE or nfp == HALF_CODE,
    "criterion": lambda fp, fnp, nfnp, nfp: LEQ_TABLE[4 * fnp + nfp],
}


# The instruction table of each node kind, indexed by 4 * left + right: a
# unary table repeats its entry across the second operand, which it ignores.
# Lowering emits the node kind, which hashes faster than a table, and `MScan`
# links each kind to its table.
NEG_TABLE16, FORCE_TABLE16 = (tuple(t[x] for x in range(4) for _ in range(4))
                              for t in (NEG_TABLE, FORCE_TABLE))
_TABLES = {Not: NEG_TABLE16, Force: FORCE_TABLE16, And: AND_TABLE, Or: OR_TABLE,
           Implies: IMP_TABLE}
BIT_CODE = (ZERO_CODE, ONE_CODE)  # an atom's slot values: the codes of 0 and 1

# The masks `scan_m` runs as an instruction on the codes of its first and last
# root, 1 where a verdict may hit: a code other than 1's (a one-root mask
# repeats its entry across the second operand), and a pair out of order.
NOT_ONE_MASK = tuple(int(x != ONE_CODE) for x in range(4) for _ in range(4))
NOT_LEQ_MASK = tuple(int(not leq) for leq in LEQ_TABLE)


def _lower(f: Formula, program: Program) -> int:
    """The register of an act-free formula in program; an atom is the leaf of its name."""
    if isinstance(f, Atom):
        return program.leaf(f.name)
    if isinstance(f, ActRef):
        raise UnknownActRef(f.name)
    if isinstance(f, (Not, Force)):
        a = _lower(f.body if isinstance(f, Not) else f.content, program)
        return program.emit(type(f), a, a)
    if isinstance(f, (And, Or, Implies)):
        return program.emit(type(f), _lower(f.left, program), _lower(f.right, program))
    raise TypeError(f"cannot evaluate {f!r}")


def lower(resolved: Sequence[Formula]) -> tuple[Program, list[int]]:
    """One program for act-free formulas, and the register of each."""
    program = Program()
    return program, [_lower(f, program) for f in resolved]


class MScan:
    """A scan over the atoms of its formulas (`keys`, sorted in `scan_m`),
    each node kind linked to its table in `ops`, and the register of its
    mask (`hit`), if it has one.

    A verdict gets this object and the codes of the formulas on the current
    assignment; `assignment` builds the 0/1 dict from the slot registers only
    when the verdict asks.
    """

    ops = _TABLES

    def __init__(self, program: Program, roots: Iterable[int], keys: Iterable[str],
                 hit: Optional[int] = None):
        self.keys = tuple(keys)
        self.code, table = program.link(self.keys, self.ops)
        self.roots = [table[x] for x in roots]
        self.hit = None if hit is None else table[hit]
        self.registers: list[int] = []

    def run(self, domains: Sequence[Sequence[int]],
            verdict: Callable[["MScan", list[int]], Any]) -> Any:
        """The first payload, in mixed-radix order over domains (one per key,
        the first most significant, each in its order), for which
        verdict(self, codes) is not None; None when there is none.

        The verdict runs only on the assignments where the mask's register
        holds 1, and on every assignment when there is no mask; the test is
        one index, with no call, on an assignment the mask rules out.
        The first assignment runs every instruction. Then each one runs only
        when a slot it reads has changed: an instruction's level is the last
        varying slot it reads, and when slot j takes its next value the
        instructions of levels j and later run, in postorder. An operand's
        level is never higher than its instruction's, so its register is
        fresh; the mask is an instruction like any other. A one-value slot is
        a constant, gives no level and is not counted among the slots that
        levels number. The outer slots advance as an odometer, and the last
        one in a plain loop.
        """
        r = self.registers = [d[0] for d in domains]
        roots, hit = self.roots, self.hit
        for t, a, b in self.code:
            r.append(t[4 * r[a] + r[b]])
        if hit is None:  # no mask: test a register past the program's that holds 1
            hit = len(r)
            r.append(1)
        if r[hit]:
            payload = verdict(self, [r[x] for x in roots])
            if payload is not None:
                return payload
        varying = [j for j, d in enumerate(domains) if len(d) > 1]
        if not varying:
            return None
        flat, starts = self._by_level(varying, len(domains))  # only once the first assignment misses
        inner = flat[starts[-1]:]
        *outer, last = varying
        digits, ends = [0] * len(outer), [len(domains[j]) - 1 for j in outer]
        values, code = domains[last][1:], inner
        while True:
            for value in values:
                r[last] = value
                for t, o, a, b in code:
                    r[o] = t[4 * r[a] + r[b]]
                if r[hit]:
                    payload = verdict(self, [r[x] for x in roots])
                    if payload is not None:
                        return payload
                code = inner
            k = len(outer) - 1  # the odometer: the last outer slot not at its end
            while k >= 0 and digits[k] == ends[k]:
                digits[k] = 0
                r[outer[k]] = domains[outer[k]][0]
                k -= 1
            if k < 0:
                return None
            digits[k] += 1
            r[outer[k]] = domains[outer[k]][digits[k]]
            values, code = domains[last], flat[starts[k]:]

    def _by_level(self, varying: Sequence[int], n: int) -> tuple[tuple, list[int]]:
        """The instructions (table, out, a, b) that have a level, by level and
        in postorder within one, and where each level starts; slot varying[k]
        has level k. One tuple, sliced per run of levels, keeps the memory
        linear in the program."""
        level = [-1] * n
        for k, j in enumerate(varying):
            level[j] = k
        groups: list[list] = [[] for _ in varying]
        for o, (t, a, b) in enumerate(self.code, n):
            level.append(max(level[a], level[b]))
            if level[o] >= 0:
                groups[level[o]].append((t, o, a, b))
        flat: list = []
        starts = []
        for group in groups:
            starts.append(len(flat))
            flat += group
        return tuple(flat), starts

    def assignment(self) -> dict[str, int]:
        return {atom: BIT_CODE.index(code) for atom, code in zip(self.keys, self.registers)}


def eval_m(formula: Formula, assignment: Mapping[str, int],
           defs: Optional[Mapping[str, Formula]] = None) -> TruthValue4:
    """Extend a 0/1 atom assignment over a formula; acts must resolve acyclically.

    The first leaf, left to right, that the assignment misses or gives a
    value other than 0 or 1 raises MissingAtom or ValueError.
    """
    program, (root,) = lower([inline_acts(formula, defs) if defs else formula])
    domains = []
    for name in program.leaves:
        if name not in assignment:
            raise MissingAtom(name)
        bit = assignment[name]
        if bit not in (0, 1):
            raise ValueError(f"atoms take 0 or 1, got {name}={bit!r}")
        domains.append((BIT_CODE[bit == 1],))
    scan = MScan(program, [root], program.leaves)
    return CARRIER[scan.run(domains, lambda _, codes: codes[0])]


class MTautologyResult(Record):
    __slots__ = ("status", "witness", "witness_value")  # status: "tautology" | "refuted"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else {"atom_values": self.witness},
            "value": None if self.witness_value is None else str(self.witness_value),
        }


def scan_m(
    formulas: Sequence[Formula],
    verdict: Callable[[MScan, list[int]], Any],
    *,
    mask: Optional[tuple[int, ...]] = None,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Optional[tuple[dict[str, int], Any]]:
    """First 0/1 assignment on which verdict(scan, codes) is not None.

    The formulas are lowered once into one program, which runs on each
    assignment of their sorted atoms, 0 before 1 and the first atom most
    significant; codes holds their values as codes (`CARRIER[code]` decodes
    one). Returns (assignment, payload), or None when the verdict never fires.

    With a mask (`NOT_ONE_MASK`, `NOT_LEQ_MASK`), the verdict is a payload
    that runs only where the mask, on the codes of the first and last
    formula, is 1; the mask must be 1 wherever the verdict would hit. A scan
    that reads every row, such as a table, passes none.
    """
    program, roots = lower([inline_acts(f, defs) for f in formulas] if defs else formulas)
    hit = None if mask is None else program.emit(mask, roots[0], roots[-1])
    atoms = sorted(program.leaves)
    check_budget(2 ** len(atoms), budget)
    scan = MScan(program, roots, atoms, hit)
    payload = scan.run([BIT_CODE] * len(atoms), verdict)
    return None if payload is None else (scan.assignment(), payload)


def is_tautology_m(
    formula: Formula,
    defs: Optional[Mapping[str, Formula]] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> MTautologyResult:
    """Exhaust all 0/1 assignments; the first refuting one (0 before 1) is the witness."""
    first = scan_m([formula], lambda _, codes: codes[0], mask=NOT_ONE_MASK, defs=defs,
                   budget=budget)
    if first is None:
        return MTautologyResult("tautology", None, None)
    witness, code = first
    return MTautologyResult("refuted", witness, CARRIER[code])


class MatrixProperty(Record):
    __slots__ = ("prop_id", "statement", "arity", "holds", "checked", "violations")


_PROPERTIES = (
    ("force-deflates", "F(a) <= a", 1,
     lambda a: force4(a) <= a),
    ("neg-force-deflates", "~F(a) <= ~a", 1,
     lambda a: neg4(force4(a)) <= neg4(a)),
    ("and-superdistributes", "F(a & b) <= F(a) & F(b)", 2,
     lambda a, b: force4(and4(a, b)) <= and4(force4(a), force4(b))),
    ("or-subdistributes", "F(a) | F(b) <= F(a | b)", 2,
     lambda a, b: or4(force4(a), force4(b)) <= force4(or4(a, b))),
    ("imp-superdistributes", "F(a -> b) <= F(a) -> F(b)", 2,
     lambda a, b: force4(imp4(a, b)) <= imp4(force4(a), force4(b))),
    ("force-idempotent", "F(F(a)) = F(a)", 1,
     lambda a: force4(force4(a)) == force4(a)),
    ("force-neg-commutes", "~F(a) = F(~a)", 1,
     lambda a: neg4(force4(a)) == force4(neg4(a))),
)


def check_matrix_properties() -> list[MatrixProperty]:
    """Exhaustively check the seven operator laws over the whole carrier."""
    report = []
    for prop_id, statement, arity, predicate in _PROPERTIES:
        tuples = list(itertools.product(CARRIER, repeat=arity))
        violations = tuple(t for t in tuples if not predicate(*t))
        report.append(
            MatrixProperty(prop_id, statement, arity, not violations, len(tuples), violations)
        )
    return report


class ContradictionRow(Record):
    """The values of a, a & ~a, F(a & ~a) and F(a) & ~F(a)."""

    __slots__ = ("a", "conjunction", "performed_conjunction", "split_performance")


def contradiction_profile() -> list[ContradictionRow]:
    """Per-value ordering data showing a & ~a is not the matrix minimum."""
    rows = []
    for a in CARRIER:
        conj = and4(a, neg4(a))
        rows.append(
            ContradictionRow(a, conj, force4(conj), and4(force4(a), neg4(force4(a))))
        )
    return rows
