"""The four-valued matrix for the single performative verb "think".

Sentences take the classical values 1 and 0; performances take 1/2
(successful) and -1/2 (unsuccessful). On a pair of performance values the
roles of conjunction and disjunction swap; that dualization is what warps
inference as soon as a force is applied. Every force symbol in a formula is
read as the one "think" operator here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence

from .search import DEFAULT_BUDGET, Slot, first_hit
from .syntax import And, Atom, Force, Formula, Implies, Not, Or, atoms_of, inline_acts


class MissingAtom(ValueError):
    """The assignment does not cover an atom of the formula."""


class TruthValue4(Enum):
    ONE = Fraction(1)
    HALF = Fraction(1, 2)
    ZERO = Fraction(0)
    NEG_HALF = Fraction(-1, 2)

    @property
    def rational(self) -> Fraction:
        return self.value

    def __le__(self, other: "TruthValue4") -> bool:
        if not isinstance(other, TruthValue4):
            return NotImplemented
        return self.value <= other.value

    def __lt__(self, other: "TruthValue4") -> bool:
        if not isinstance(other, TruthValue4):
            return NotImplemented
        return self.value < other.value

    def __ge__(self, other: "TruthValue4") -> bool:
        if not isinstance(other, TruthValue4):
            return NotImplemented
        return self.value >= other.value

    def __gt__(self, other: "TruthValue4") -> bool:
        if not isinstance(other, TruthValue4):
            return NotImplemented
        return self.value > other.value

    def __str__(self) -> str:
        return str(self.value)


CARRIER = (TruthValue4.ONE, TruthValue4.HALF, TruthValue4.ZERO, TruthValue4.NEG_HALF)
DESIGNATED = frozenset({TruthValue4.ONE})

CLASSIFICATION = {
    TruthValue4.ONE: "true-sentence",
    TruthValue4.ZERO: "false-sentence",
    TruthValue4.HALF: "successful-performance",
    TruthValue4.NEG_HALF: "unsuccessful-performance",
}

_BY_RATIONAL = {v.value: v for v in TruthValue4}


def _of(r: Fraction) -> TruthValue4:
    return _BY_RATIONAL[Fraction(r)]


def _is_performance(x: TruthValue4) -> bool:
    return x in (TruthValue4.HALF, TruthValue4.NEG_HALF)


def sup4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    return x if x >= y else y


def inf4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    return x if x <= y else y


def neg4(x: TruthValue4) -> TruthValue4:
    if x in (TruthValue4.ONE, TruthValue4.ZERO):
        return _of(1 - x.rational)
    return _of(-x.rational)


def force4(x: TruthValue4) -> TruthValue4:
    """Performing a content: classical values drop by a half, performances stay."""
    if x in (TruthValue4.ONE, TruthValue4.ZERO):
        return _of(x.rational - Fraction(1, 2))
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
        return inf4(x, y)
    return sup4(x, y)


def and4(x: TruthValue4, y: TruthValue4) -> TruthValue4:
    if _is_performance(x) and _is_performance(y):
        return sup4(x, y)
    return inf4(x, y)


def classify(v: TruthValue4) -> str:
    return CLASSIFICATION[v]


def eval_m(
    formula: Formula,
    assignment: Mapping[str, int],
    defs: Optional[Mapping[str, Formula]] = None,
) -> TruthValue4:
    """Extend a 0/1 atom assignment over a formula; acts must resolve acyclically."""
    resolved = inline_acts(formula, dict(defs or {}))
    return _ev(resolved, assignment)


def _ev(f: Formula, e: Mapping[str, int]) -> TruthValue4:
    if isinstance(f, Atom):
        if f.name not in e:
            raise MissingAtom(f.name)
        bit = e[f.name]
        if bit not in (0, 1):
            raise ValueError(f"atoms take 0 or 1, got {f.name}={bit!r}")
        return TruthValue4.ONE if bit == 1 else TruthValue4.ZERO
    if isinstance(f, Not):
        return neg4(_ev(f.body, e))
    if isinstance(f, Force):
        return force4(_ev(f.content, e))
    if isinstance(f, And):
        return and4(_ev(f.left, e), _ev(f.right, e))
    if isinstance(f, Or):
        return or4(_ev(f.left, e), _ev(f.right, e))
    if isinstance(f, Implies):
        return imp4(_ev(f.left, e), _ev(f.right, e))
    raise TypeError(f"cannot evaluate {f!r}")


@dataclass(frozen=True)
class MTautologyResult:
    status: str  # "tautology" | "refuted"
    witness: Optional[dict[str, int]]
    witness_value: Optional[TruthValue4]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else {"atom_values": self.witness},
            "value": None if self.witness_value is None else str(self.witness_value),
        }


def scan_m(
    formulas: Sequence[Formula],
    verdict: Callable[[dict[str, int], list[TruthValue4]], Any],
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Optional[tuple[dict[str, int], Any]]:
    """First 0/1 assignment on which verdict(assignment, values) is not None.

    Every formula is evaluated on each assignment of their sorted atoms, 0
    before 1 and the first atom most significant. Returns (assignment,
    payload), or None when the verdict never fires.
    """
    defs = dict(defs or {})
    resolved = [inline_acts(f, defs) for f in formulas]
    atoms = sorted({name for r in resolved for name in atoms_of(r)})

    def predicate(values: tuple[int, ...]) -> Any:
        assignment = dict(zip(atoms, values))
        return verdict(assignment, [_ev(r, assignment) for r in resolved])

    return first_hit([Slot(name, (0, 1)) for name in atoms], predicate, budget=budget)


def is_tautology_m(
    formula: Formula,
    defs: Optional[Mapping[str, Formula]] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> MTautologyResult:
    """Exhaust all 0/1 assignments; the first refuting one (0 before 1) is the witness."""

    def refutes(_, values: list[TruthValue4]) -> Optional[TruthValue4]:
        return None if values[0] in DESIGNATED else values[0]

    first = scan_m([formula], refutes, defs=defs, budget=budget)
    if first is None:
        return MTautologyResult("tautology", None, None)
    return MTautologyResult("refuted", *first)


@dataclass(frozen=True)
class MatrixProperty:
    prop_id: str
    statement: str
    arity: int
    holds: bool
    checked: int
    violations: tuple[tuple[TruthValue4, ...], ...]


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


@dataclass(frozen=True)
class ContradictionRow:
    a: TruthValue4
    conjunction: TruthValue4          # a & ~a
    performed_conjunction: TruthValue4  # F(a & ~a)
    split_performance: TruthValue4      # F(a) & ~F(a)


def contradiction_profile() -> list[ContradictionRow]:
    """Per-value ordering data showing a & ~a is not the matrix minimum."""
    rows = []
    for a in CARRIER:
        conj = and4(a, neg4(a))
        rows.append(
            ContradictionRow(a, conj, force4(conj), and4(force4(a), neg4(force4(a))))
        )
    return rows
