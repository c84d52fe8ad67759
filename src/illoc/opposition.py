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

from typing import Callable, Iterable, Mapping, Optional

from .boolalg import AlgebraSpec
from .hyper import (
    HyperValue,
    SquareReport,
    encode,
    hyper_to_json,
    is_standard,
    normalize,
    packed_ops,
    square_relations,
    square_report,
)
from .matrix_m import CARRIER, NOT_LEQ_MASK, ONE_CODE, SQUARE_RELATIONS, MScan, scan_m
from .matrix_mb import MBMode, MBScan, StandardAssignment, scan_mb, valuation_to_json
from .record import Record, setfield
from .search import DEFAULT_BUDGET
from .syntax import And, Atom, Force, Formula, Not, Or


class CheckSpace(Record):
    """Where a quantified check runs: which matrix, algebra, mode, filters."""

    __slots__ = ("matrix", "algebra", "mode", "admissible_only", "budget", "jobs")

    def __init__(
        self,
        matrix: str,  # "m" | "mb"
        algebra: Optional[AlgebraSpec] = None,
        mode: MBMode = MBMode.POINTWISE,
        admissible_only: bool = True,
        budget: int = DEFAULT_BUDGET,
        jobs: int = 1,
    ) -> None:
        setfield(self, "matrix", matrix)
        setfield(self, "algebra", algebra)
        setfield(self, "mode", mode)
        setfield(self, "admissible_only", admissible_only)
        setfield(self, "budget", budget)
        setfield(self, "jobs", jobs)
        if matrix not in ("m", "mb"):
            raise ValueError(f"unknown matrix {matrix!r}")
        if matrix == "mb" and algebra is None:
            raise ValueError("the nonstandard matrix needs an algebra")


class EntailmentResult(Record):
    __slots__ = ("holds", "witness", "left_value", "right_value")  # witness: JSON-shaped

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

    In `m` the order test is the scan's mask, `NOT_LEQ_MASK`, so the payload
    runs only on a violation; in `mb` the verdict compares the packed values
    on every valuation. space.jobs is accepted for compatibility and does not
    change the scan.
    """
    if space.matrix == "m":
        first = scan_m([left, right], lambda _, codes: codes, mask=NOT_LEQ_MASK, defs=defs,
                       budget=space.budget)
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


class RelationCheck(Record):
    __slots__ = ("holds", "witness")
    _defaults = {"witness": None}

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class LawRow(Record):
    """Values, printed, of ~F(~p) | ~F(p) (`excluded_middle`) and ~(F(~p) & F(p))
    (`contrariety`) on one valuation, and whether each is designated."""

    __slots__ = ("label", "excluded_middle", "contrariety", "excluded_middle_designated",
                 "contrariety_designated")

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


class LawsReport(Record):
    __slots__ = ("rows", "excluded_middle_always_designated", "contrariety_always_designated",
                 "values_coincide")

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


class OppositionReport(Record):
    """The square for one force and atom; repr leaves out the `mb` report in `hyper`."""

    __slots__ = ("matrix", "force", "atom", "square_holds", "criterion_holds", "contrary",
                 "contradictory", "subcontrary", "subaltern_left", "subaltern_right", "laws",
                 "hyper")
    _shown = __slots__[:-1]
    _defaults = {"hyper": None}

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


def _square_formulas(force: str, atom: str) -> tuple[Formula, ...]:
    """The corners F(p), F(~p), ~F(~p), ~F(p), then ~F(~p) | ~F(p) and ~(F(~p) & F(p))."""
    p = Atom(atom)
    pos = Force(force, p)                 # F(p)
    neg_content = Force(force, Not(p))    # F(~p)
    excluded_middle = Or(Not(neg_content), Not(pos))
    contrariety = Not(And(neg_content, pos))
    return pos, neg_content, Not(neg_content), Not(pos), excluded_middle, contrariety


class _Square:
    """Relation witnesses and law rows gathered over one scan of the square formulas.

    add takes one valuation: its corner codes, a function giving its witness
    and its law row. A relation's witness is taken at its first failure, so it
    is the first failing valuation in scan order.
    """

    def __init__(self, relations: Mapping[str, Callable[[int, int, int, int], bool]]):
        self.relations = relations
        self.failed: dict[str, dict] = {}
        self.rows: list[LawRow] = []

    def add(self, corners: list[int], witness: Callable[[], dict], row: LawRow) -> None:
        for name, relation in self.relations.items():
            if name not in self.failed and not relation(*corners):
                self.failed[name] = witness()
        self.rows.append(row)

    def report(self, matrix: str, force: str, atom: str,
               hyper: Optional[SquareReport] = None) -> OppositionReport:
        checks = {name: RelationCheck(name not in self.failed, self.failed.get(name))
                  for name in self.relations}
        criterion = checks.pop("criterion").holds
        return OppositionReport(matrix, force, atom, criterion, criterion, **checks,
                                laws=LawsReport.of(self.rows), hyper=hyper)


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
    return square_for_force(force, atom, space, generator=generator).criterion_holds


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
    """The square, its criterion and one law row per assignment from one scan of the atom."""
    square = _Square(SQUARE_RELATIONS)

    def visit(scan: MScan, codes: list[int]) -> None:
        em, lc = codes[4:]
        row = LawRow(f"{atom}={scan.assignment()[atom]}", str(CARRIER[em]), str(CARRIER[lc]),
                     em == ONE_CODE, lc == ONE_CODE)
        square.add(codes[:4], lambda: {"atom_values": scan.assignment()}, row)

    scan_m(_square_formulas(force, atom), visit, budget=space.budget)
    return square.report("m", force, atom)


def _square_mb(
    force: str, atom: str, space: CheckSpace, generator: Optional[HyperValue]
) -> OppositionReport:
    """The square, its criterion and the law rows from one scan over the generator slot.

    The slot ranges over every nonstandard generator, sized and refused before
    any is built when over budget, or holds only the given generator. A
    relation's witness is its first failing generator in scan order.
    """
    domains, budget = None, space.budget
    if generator is not None:
        generator = normalize(generator)
        if is_standard(generator):
            raise StandardAssignment("the generator must be nonstandard")
        if generator.algebra != space.algebra:
            raise ValueError(f"{generator} is outside the domain of slot {('gen', force, atom)!r}")
        # one valuation, like `eval`: no budget applies
        domains, budget = {"gen": (encode(generator),)}, DEFAULT_BUDGET
    ops = packed_ops(space.algebra.k)
    square = _Square(square_relations(ops))
    text: dict[int, str] = {}  # printed values, by code

    def visit(scan: MBScan, codes: list[int]) -> None:
        corners, (em, lc) = codes[:4], codes[4:]
        for code in (corners[0], em, lc):
            if code not in text:
                text[code] = str(scan.decode(code))
        row = LawRow(f"generator={text[corners[0]]}", text[em], text[lc],
                     em == ops.top, lc == ops.top)
        square.add(corners, lambda: {"generator": hyper_to_json(scan.decode(corners[0]))}, row)

    scan_mb(_square_formulas(force, atom), space.algebra, space.mode, visit,
            budget=budget, domains=domains)
    hyper = None if generator is None else square_report(generator)
    return square.report("mb", force, atom, hyper)


def laws_report(
    force: str,
    space: CheckSpace,
    *,
    atom: str = "p",
    generator: Optional[HyperValue] = None,
) -> LawsReport:
    """Values and designation of the two square corollaries, never asserted."""
    if space.matrix == "mb" and space.mode is MBMode.FREE:
        raise ValueError("the laws need a content-linked mode, not FREE")
    return square_for_force(force, atom, space, generator=generator).laws
