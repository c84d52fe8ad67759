"""Entailment between acts and the square of opposition at the formula level.

Entailment quantifies the value order over a whole valuation space: one act
entails another when no valuation ranks the first strictly above the second.
In the four-valued matrix "success" is the value 1/2; in the nonstandard
matrix the square is read order-theoretically, comparing an act's value, its
content negation and their complements. Contrary verbs are modeled as one
force plus content negation, so a single nonstandard value determines the
whole square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .boolalg import AlgebraSpec
from .hyper import (
    HyperValue,
    SquareReport,
    hyper_to_json,
    is_standard,
    normalize,
    packed_ops,
    square_from_corners,
    square_relations,
)
from .matrix_m import CARRIER, HALF_CODE, LEQ_TABLE, NEG_HALF_CODE, ONE_CODE, MScan, scan_m
from .matrix_mb import MBMode, MBScan, StandardAssignment, scan_mb, valuation_to_json
from .search import DEFAULT_BUDGET
from .syntax import And, Atom, Force, Formula, Not, Or


@dataclass(frozen=True)
class CheckSpace:
    """Where a quantified check runs: which matrix, algebra, mode, filters."""

    matrix: str  # "m" | "mb"
    algebra: Optional[AlgebraSpec] = None
    mode: MBMode = MBMode.POINTWISE
    admissible_only: bool = True
    budget: int = DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.matrix not in ("m", "mb"):
            raise ValueError(f"unknown matrix {self.matrix!r}")
        if self.matrix == "mb" and self.algebra is None:
            raise ValueError("the nonstandard matrix needs an algebra")


@dataclass(frozen=True)
class EntailmentResult:
    holds: bool
    witness: Optional[dict]  # JSON-shaped valuation
    left_value: Optional[str]
    right_value: Optional[str]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witness": self.witness,
            "left_value": self.left_value,
            "right_value": self.right_value,
        }


def entails(
    left: Formula,
    right: Formula,
    space: CheckSpace,
    defs: Optional[Mapping[str, Formula]] = None,
) -> EntailmentResult:
    """Check value(left) <= value(right) under every valuation of the space.

    space.jobs is accepted for compatibility and does not change the scan.
    """
    if space.matrix == "m":

        def violates_m(_, codes: list[int]) -> Optional[list[int]]:
            lhs, rhs = codes
            return None if LEQ_TABLE[lhs * 4 + rhs] else codes

        first = scan_m([left, right], violates_m, defs=defs, budget=space.budget)
        if first is None:
            return EntailmentResult(True, None, None, None)
        assignment, (lhs, rhs) = first
        return EntailmentResult(False, {"atom_values": assignment},
                                str(CARRIER[lhs]), str(CARRIER[rhs]))

    leq = packed_ops(space.algebra.k).leq

    def violates(scan: MBScan, codes: list[int]):
        lhs, rhs = codes
        if leq(lhs, rhs):
            return None
        if space.admissible_only and not (scan.admissible(0) and scan.admissible(1)):
            return None
        return scan.decode(lhs), scan.decode(rhs)

    first, _ = scan_mb(
        [left, right], space.algebra, space.mode, violates, defs=defs, budget=space.budget
    )
    if first is None:
        return EntailmentResult(True, None, None, None)
    valuation, (lhs, rhs) = first
    return EntailmentResult(False, valuation_to_json(valuation), str(lhs), str(rhs))


@dataclass(frozen=True)
class RelationCheck:
    holds: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


@dataclass(frozen=True)
class LawRow:
    label: str
    excluded_middle: str      # value of ~F(~p) | ~F(p)
    contrariety: str          # value of ~(F(~p) & F(p))
    excluded_middle_designated: bool
    contrariety_designated: bool

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "tertium_non_datur": {
                "value": self.excluded_middle,
                "designated": self.excluded_middle_designated,
            },
            "law_of_contrary": {
                "value": self.contrariety,
                "designated": self.contrariety_designated,
            },
        }


@dataclass(frozen=True)
class LawsReport:
    rows: tuple[LawRow, ...]
    excluded_middle_always_designated: bool
    contrariety_always_designated: bool
    values_coincide: bool

    @classmethod
    def of(cls, rows: Iterable[LawRow]) -> "LawsReport":
        rows = tuple(rows)
        return cls(
            rows,
            all(r.excluded_middle_designated for r in rows),
            all(r.contrariety_designated for r in rows),
            all(r.excluded_middle == r.contrariety for r in rows),
        )

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "tertium_non_datur_always_designated": self.excluded_middle_always_designated,
            "law_of_contrary_always_designated": self.contrariety_always_designated,
            "values_coincide": self.values_coincide,
        }


@dataclass(frozen=True)
class OppositionReport:
    matrix: str
    force: str
    atom: str
    square_holds: bool
    criterion_holds: bool
    contrary: RelationCheck
    contradictory: RelationCheck
    subcontrary: RelationCheck
    subaltern_left: RelationCheck
    subaltern_right: RelationCheck
    laws: LawsReport
    hyper: Optional[SquareReport] = field(default=None, repr=False)

    def to_json(self) -> dict:
        data = {
            "matrix": self.matrix,
            "force": self.force,
            "atom": self.atom,
            "square_holds": self.square_holds,
            "criterion_holds": self.criterion_holds,
            "relations": {
                "contrary": self.contrary.to_json(),
                "contradictory": self.contradictory.to_json(),
                "subcontrary": self.subcontrary.to_json(),
                "subaltern_left": self.subaltern_left.to_json(),
                "subaltern_right": self.subaltern_right.to_json(),
            },
            "laws": self.laws.to_json(),
        }
        if self.hyper is not None:
            data["hyper"] = self.hyper.to_json()
        return data


def _corner_formulas(force: str, atom: str) -> tuple[Formula, Formula, Formula, Formula]:
    p = Atom(atom)
    pos = Force(force, p)                 # F(p)
    neg_content = Force(force, Not(p))    # F(~p)
    return pos, neg_content, Not(neg_content), Not(pos)


def _laws_formulas(force: str, atom: str) -> tuple[Formula, Formula]:
    p = Atom(atom)
    excluded_middle = Or(Not(Force(force, Not(p))), Not(Force(force, p)))
    contrariety = Not(And(Force(force, Not(p)), Force(force, p)))
    return excluded_middle, contrariety


def _laws_report_m(force: str, atom: str, budget: int) -> LawsReport:
    rows = []

    def row(scan: MScan, codes: list[int]) -> None:
        em, lc = codes
        rows.append(
            LawRow(
                f"{atom}={scan.assignment()[atom]}", str(CARRIER[em]), str(CARRIER[lc]),
                em == ONE_CODE, lc == ONE_CODE,
            )
        )

    scan_m(_laws_formulas(force, atom), row, budget=budget)
    return LawsReport.of(rows)


def criterion_holds(
    force: str,
    space: CheckSpace,
    *,
    atom: str = "p",
    generator: Optional[HyperValue] = None,
) -> bool:
    """Whether performing the negated content entails rejecting the act.

    Quantifies value(F(~p)) <= value(~F(p)) over the space's valuations; when
    this holds, the whole square of opposition does. With a fixed nonstandard
    generator it reduces to the generator's components being disjoint.
    """
    if space.matrix == "m":
        p = Atom(atom)
        return entails(Force(force, Not(p)), Not(Force(force, p)), space).holds
    if space.mode is MBMode.FREE:
        raise ValueError("the square needs a content-linked mode, not FREE")
    return _square_mb(force, atom, space, generator).criterion_holds


def square_for_force(
    force: str,
    atom: str,
    space: CheckSpace,
    *,
    generator: Optional[HyperValue] = None,
) -> OppositionReport:
    """Build the full square report for one force applied to one atom."""
    if space.matrix == "m":
        return _square_m(force, atom, space)
    if space.mode is MBMode.FREE:
        raise ValueError("the square needs a content-linked mode, not FREE")
    return _square_mb(force, atom, space, generator)


def _square_m(force: str, atom: str, space: CheckSpace) -> OppositionReport:
    corners = _corner_formulas(force, atom)

    def quantify(condition) -> RelationCheck:
        # condition(success, failure) gets one flag per corner, in corner order
        def fails(_, codes: list[int]) -> Optional[bool]:
            success = [c == HALF_CODE for c in codes]
            failure = [c == NEG_HALF_CODE for c in codes]
            return None if condition(success, failure) else True

        first = scan_m(corners, fails, budget=space.budget)
        if first is None:
            return RelationCheck(True)
        return RelationCheck(False, {"atom_values": first[0]})

    # corners: F(p), F(~p), ~F(~p), ~F(p)
    contrary = quantify(lambda s, u: not (s[0] and s[1]))
    contradictory = quantify(lambda s, u: s[0] == u[3] and s[1] == u[2])
    subcontrary = quantify(lambda s, u: not (u[3] and u[2]))
    subaltern_left = quantify(lambda s, u: s[2] if s[0] else True)
    subaltern_right = quantify(lambda s, u: s[3] if s[1] else True)
    criterion = entails(corners[1], corners[3], space).holds
    return OppositionReport(
        matrix="m",
        force=force,
        atom=atom,
        square_holds=criterion,
        criterion_holds=criterion,
        contrary=contrary,
        contradictory=contradictory,
        subcontrary=subcontrary,
        subaltern_left=subaltern_left,
        subaltern_right=subaltern_right,
        laws=_laws_report_m(force, atom, space.budget),
    )


def _square_mb(
    force: str, atom: str, space: CheckSpace, generator: Optional[HyperValue]
) -> OppositionReport:
    """The square, its criterion and the law rows from one scan over the generator slot.

    The slot ranges over every nonstandard generator, sized and refused before
    any is built when over budget, or holds only the given generator. A
    relation's witness is its first failing generator in scan order.
    """
    slot_filter, budget = None, space.budget
    if generator is not None:
        generator = normalize(generator)
        if is_standard(generator):
            raise StandardAssignment("the generator must be nonstandard")
        # one valuation, like `eval`: no budget applies
        slot_filter, budget = (lambda key, domain: (generator,)), DEFAULT_BUDGET
    ops = packed_ops(space.algebra.k)
    relations = square_relations(ops)
    failed: dict[str, HyperValue] = {}
    rows: list[LawRow] = []
    text: dict[int, str] = {}  # printed values, by code
    squares: list[SquareReport] = []

    def visit(scan: MBScan, codes: list[int]) -> None:
        corners, (em, lc) = codes[:4], codes[4:]
        for name, relation in relations.items():
            if name not in failed and not relation(*corners):
                failed[name] = scan.decode(corners[0])
        for code in (corners[0], em, lc):
            if code not in text:
                text[code] = str(scan.decode(code))
        rows.append(LawRow(f"generator={text[corners[0]]}", text[em], text[lc],
                           em == ops.top, lc == ops.top))
        if generator is not None:
            squares.append(square_from_corners(space.algebra, *corners))

    formulas = [*_corner_formulas(force, atom), *_laws_formulas(force, atom)]
    scan_mb(formulas, space.algebra, space.mode, visit, budget=budget, slot_filter=slot_filter)
    checks = {
        name: RelationCheck(False, {"generator": hyper_to_json(failed[name])})
        if name in failed else RelationCheck(True)
        for name in relations
    }
    criterion = checks.pop("criterion").holds
    return OppositionReport("mb", force, atom, criterion, criterion, **checks,
                            laws=LawsReport.of(rows), hyper=squares[0] if squares else None)


def laws_report(
    force: str,
    space: CheckSpace,
    *,
    atom: str = "p",
    generator: Optional[HyperValue] = None,
) -> LawsReport:
    """Values and designation of the two square corollaries, never asserted."""
    if space.matrix == "m":
        return _laws_report_m(force, atom, space.budget)
    if space.mode is MBMode.FREE:
        raise ValueError("the laws need a content-linked mode, not FREE")
    return _square_mb(force, atom, space, generator).laws
