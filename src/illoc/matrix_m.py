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
for a result a caller keeps. Negation and force are unary maps on the codes,
and a chain of them costs no instruction: lowering folds its map into the
16-entry table of the binary connective that reads it, and only a root whose
chain is not the identity gets an instruction of its own. Each instruction
looks up its table by row, t[left][right], with no call. A tautology
check and entailment split their verdict into a mask, a 16-entry 0/1 table
over the codes of their roots that runs as the program's last instruction,
and a payload, the one Python call, made only where the mask is 1.
Act references are inlined first, and only when there are definitions: with
none, lowering raises UnknownActRef at the first reference.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from .program import Program, schedule
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


# The maps that chains of ~ and F make on the codes, each a 4-tuple indexed by
# code: the closure of the two unary tables under composition, found at import.
# MAPS[0] is the identity, the empty chain. Peeling a chain from the outside,
# map m with a ~ inside it becomes _NEG_INSIDE[m], and with an F
# _FORCE_INSIDE[m].
def _unary_maps() -> tuple[tuple[int, ...], ...]:
    maps = [tuple(range(4))]
    for m in maps:  # grows while it is walked: a breadth-first closure
        for t in (NEG_TABLE, FORCE_TABLE):
            if (tm := tuple(t[x] for x in m)) not in maps:
                maps.append(tm)
    return tuple(maps)


MAPS = _unary_maps()
_WIDTH = len(MAPS)
_NEG_INSIDE, _FORCE_INSIDE = (tuple(MAPS.index(tuple(m[x] for x in t)) for m in MAPS)
                              for t in (NEG_TABLE, FORCE_TABLE))

# An instruction's op is a small int, because hashing a 16-tuple at every emit
# made lowering about 10% slower. A binary op names its connective and the
# maps of its two operands, _BINARY[kind] + len(MAPS) * left + right; a root
# op, _ROOT_OP + m, applies map m to its first operand. Its fused 16-entry
# table, indexed by 4 * left + right like the code tables, stays the
# definition; `MScan` links each op to the table's four rows (`split_rows`),
# so an instruction reads t[left][right] and computes no index.
_CONNECTIVES = {And: AND_TABLE, Or: OR_TABLE, Implies: IMP_TABLE}
_BINARY = {kind: i * _WIDTH ** 2 for i, kind in enumerate(_CONNECTIVES)}
_ROOT_OP = len(_BINARY) * _WIDTH ** 2
_FUSED_TABLES = {
    **{_BINARY[kind] + _WIDTH * i + j:
       tuple(t[4 * ml[x] + mr[y]] for x in range(4) for y in range(4))
       for kind, t in _CONNECTIVES.items()
       for i, ml in enumerate(MAPS) for j, mr in enumerate(MAPS)},
    **{_ROOT_OP + i: tuple(m[x] for x in range(4) for _ in range(4)) for i, m in enumerate(MAPS)},
}
BIT_CODE = (ZERO_CODE, ONE_CODE)  # an atom's slot values: the codes of 0 and 1


def split_rows(table: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """A 16-entry table indexed by 4 * left + right as four rows of four,
    indexed [left][right]."""
    return tuple(tuple(table[4 * x:4 * x + 4]) for x in range(4))


# The masks `scan_m` runs as an instruction on the codes of its first and last
# root, 1 where a verdict may hit: a code other than 1's (a one-root mask
# repeats its entry across the second operand), and a pair out of order.
NOT_ONE_MASK = tuple(int(x != ONE_CODE) for x in range(4) for _ in range(4))
NOT_LEQ_MASK = tuple(int(not leq) for leq in LEQ_TABLE)


def _lower(f: Formula, program: Program) -> tuple[int, int]:
    """The register in program of an act-free formula's unary chain's operand,
    and the index in MAPS of the chain's map: the formula's value is that map
    of the register's. An atom is the leaf of its name. A chain is peeled in a
    loop and costs no instruction: the instruction that reads it fuses its map."""
    m = 0
    while True:
        if isinstance(f, Not):
            m, f = _NEG_INSIDE[m], f.body
        elif isinstance(f, Force):
            m, f = _FORCE_INSIDE[m], f.content
        else:
            break
    if isinstance(f, Atom):
        return program.leaf(f.name), m
    base = _BINARY.get(type(f))
    if base is not None:
        a, ma = _lower(f.left, program)
        b, mb = _lower(f.right, program)
        return program.emit(base + _WIDTH * ma + mb, a, b), m
    if isinstance(f, ActRef):
        raise UnknownActRef(f.name)
    raise TypeError(f"cannot evaluate {f!r}")


def lower(resolved: Sequence[Formula]) -> tuple[Program, list[int]]:
    """One program for act-free formulas, and the register of each: a formula
    whose chain's map is not the identity ends in a root instruction."""
    program = Program()
    roots = []
    for f in resolved:
        r, m = _lower(f, program)
        roots.append(r if m == 0 else program.emit(_ROOT_OP + m, r, r))
    return program, roots


class MScan:
    """A scan over the atoms of its formulas (`keys`, sorted in `scan_m`),
    each op linked to the rows (`rows`) of its fused table (`ops`), and the
    register the verdict's call tests (`hit`): its mask's, or with no mask
    the one past the program's, which holds 1.

    A verdict gets this object and the codes of the formulas on the current
    assignment; `assignment` builds the 0/1 dict from the slot registers only
    when the verdict asks.
    """

    ops = _FUSED_TABLES
    rows = {op: split_rows(t) for op, t in ops.items()}

    def __init__(self, program: Program, roots: Iterable[int], keys: Iterable[str],
                 hit: Optional[int] = None):
        self.keys = tuple(keys)
        self.code, table = program.link(self.keys, self.rows)
        self.roots = [table[x] for x in roots]
        self.hit = len(self.keys) + len(self.code) if hit is None else table[hit]
        self.registers: list[int] = []

    def run(self, domains: Sequence[Sequence[int]],
            verdict: Callable[["MScan", list[int]], Any]) -> Any:
        """The first payload, in mixed-radix order over domains (one per key,
        the first most significant, each in its order), for which
        verdict(self, codes) is not None; None when there is none, and at
        once when a domain is empty.

        The verdict runs only on the assignments where the mask's register
        holds 1, and on every assignment when there is no mask; the test is
        one index, with no call, on an assignment the mask rules out. The
        assignments come from `program.schedule`, and each op is linked to
        its table's rows, so an instruction is `r[o] = t[r[a]][r[b]]`.
        """
        roots, hit = self.roots, self.hit
        r = self.registers = [1] * (len(domains) + len(self.code) + 1)
        for block, steps in schedule(r, self.code, domains):
            for values, code in steps:
                r[block] = values
                for t, o, a, b in code:
                    r[o] = t[r[a]][r[b]]
                if r[hit]:
                    payload = verdict(self, [r[x] for x in roots])
                    if payload is not None:
                        return payload
        return None

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
    hit = None if mask is None else program.emit(split_rows(mask), roots[0], roots[-1])
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
