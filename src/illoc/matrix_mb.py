"""The non-Archimedean matrix over the nonstandard Boolean extension.

The only designated value is the standard top. Conjunction and disjunction
act as base-algebra meet/join on standard pairs but swap to the pointwise
join/meet on nonstandard pairs; negation is the pointwise complement; the
implication is complement-of-order-join joined with the consequent, which
collapses to material implication on standard values and makes any
implication with a nonstandard antecedent and standard consequent designated.

A force over force-free content needs a value from the valuation, and the
matrix itself does not say how that value relates to the content. Three
disambiguations are provided:

  FREE        every distinct act subformula gets an independent value, keyed
              by its canonical printed form.
  POINTWISE   per-atom generator values extended through the content with the
              pointwise lattice operations (negated content becomes the
              component swap, exactly the content-negation construction).
  CONNECTIVE  the same generators, but the content's binary connectives map
              to this matrix's own connectives.

A force over content that already contains forces applies the force's
signature value through the matrix implication, in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .boolalg import (
    AlgebraSpec,
    Element,
    algebra_from_json,
    algebra_to_json,
    complement,
    element_from_json,
    element_to_json,
    enumerate_elements,
    join,
    meet,
)
from .hyper import (
    HyperValue,
    content_neg,
    enumerate_nonstandard,
    hneg,
    hyper_from_json,
    hyper_to_json,
    is_standard,
    normalize,
    oinf,
    osup,
    pinf,
    psup,
    standard,
)
from .search import DEFAULT_BUDGET, Slot, check_budget, first_hit, space_size
from .syntax import (
    ActRef,
    And,
    Atom,
    Force,
    Formula,
    Implies,
    Not,
    Or,
    atoms_of,
    detect_cycles,
    format_formula,
    inline_acts,
    unfold_once,
    walk,
)

__all__ = [
    "MBMode",
    "MBValuation",
    "EvalOutcome",
    "MissingAssignment",
    "StandardAssignment",
    "NotCyclic",
    "mb_neg",
    "mb_and",
    "mb_or",
    "mb_imp",
    "eval_mb",
    "is_tautology_mb",
    "find_difference",
    "find_idempotence_counterexample",
    "find_neg_swap_counterexample",
    "unfold_cyclic",
    "scan_mb",
    "Requirements",
    "requirements",
    "valuation_to_json",
    "valuation_from_json",
]


class MissingAssignment(ValueError):
    """The valuation lacks a value the formula needs."""


class StandardAssignment(ValueError):
    """An act value, generator, or signature was standard after normalization."""


class NotCyclic(ValueError):
    """The named act is not part of any definition cycle."""


class MBMode(Enum):
    FREE = "free"
    POINTWISE = "pointwise"
    CONNECTIVE = "connective"


@dataclass(frozen=True)
class MBValuation:
    algebra: AlgebraSpec
    mode: MBMode = MBMode.POINTWISE
    atom_values: Mapping[str, Element] = field(default_factory=dict)
    act_values: Mapping[str, HyperValue] = field(default_factory=dict)
    generators: Mapping[tuple[str, str], HyperValue] = field(default_factory=dict)
    signatures: Mapping[str, HyperValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.atom_values.items():
            if value.algebra != self.algebra:
                raise ValueError(f"atom {name!r} is valued outside the algebra")
        for label, mapping in (
            ("act", self.act_values),
            ("generator", self.generators),
            ("signature", self.signatures),
        ):
            normalized = {}
            for key, value in mapping.items():
                if value.algebra != self.algebra:
                    raise ValueError(f"{label} {key!r} is valued outside the algebra")
                value = normalize(value)
                if is_standard(value):
                    raise StandardAssignment(f"{label} {key!r} must be nonstandard")
                normalized[key] = value
            object.__setattr__(self, _FIELD_BY_LABEL[label], normalized)


_FIELD_BY_LABEL = {"act": "act_values", "generator": "generators", "signature": "signatures"}


@dataclass(frozen=True)
class EvalOutcome:
    value: HyperValue
    admissible: bool
    subvalues: dict[str, HyperValue]

    def to_json(self) -> dict:
        return {
            "value": hyper_to_json(self.value),
            "admissible": self.admissible,
            "subvalues": {key: hyper_to_json(v) for key, v in self.subvalues.items()},
        }


# --- connectives ---

def mb_neg(x: HyperValue) -> HyperValue:
    return hneg(x)


def mb_and(x: HyperValue, y: HyperValue) -> HyperValue:
    a, b = normalize(x), normalize(y)
    sa, sb = is_standard(a), is_standard(b)
    if sa and sb:
        return standard(meet(a.on_true, b.on_true))
    if sa or sb:
        return oinf(a, b)
    return psup(a, b)  # the dualized clause for nonstandard pairs


def mb_or(x: HyperValue, y: HyperValue) -> HyperValue:
    a, b = normalize(x), normalize(y)
    sa, sb = is_standard(a), is_standard(b)
    if sa and sb:
        return standard(join(a.on_true, b.on_true))
    if sa or sb:
        return osup(a, b)
    return pinf(a, b)


def mb_imp(x: HyperValue, y: HyperValue) -> HyperValue:
    """Complement of the order-join of the operands, joined pointwise with y."""
    return psup(hneg(osup(x, y)), y)


def _pointwise_imp(x: HyperValue, y: HyperValue) -> HyperValue:
    # Componentwise ~x | y; used only for unfolding cyclic acts, where the
    # order-join reading would erase the dependence on the innermost value.
    return psup(hneg(x), y)


# --- evaluation ---

@lru_cache(maxsize=None)
def _act_key(node: Force) -> str:
    return format_formula(node)


def _contains_act(f: Formula, bound: frozenset[str]) -> bool:
    for node in walk(f):
        if isinstance(node, Force):
            return True
        if isinstance(node, ActRef) and node.name in bound:
            return True
    return False


def eval_mb(
    formula: Formula,
    valuation: MBValuation,
    defs: Optional[Mapping[str, Formula]] = None,
) -> EvalOutcome:
    resolved = inline_acts(formula, dict(defs or {}))
    return _eval_resolved(resolved, valuation, {}, nested_pointwise=False)


def _eval_resolved(
    resolved: Formula,
    valuation: MBValuation,
    bindings: Mapping[str, HyperValue],
    nested_pointwise: bool,
) -> EvalOutcome:
    subvalues: dict[str, HyperValue] = {}
    bound = frozenset(bindings)

    def ev(f: Formula) -> HyperValue:
        if isinstance(f, Atom):
            if f.name not in valuation.atom_values:
                raise MissingAssignment(f"no value for atom {f.name!r}")
            return standard(valuation.atom_values[f.name])
        if isinstance(f, ActRef):
            return bindings[f.name]
        if isinstance(f, Not):
            return mb_neg(ev(f.body))
        if isinstance(f, And):
            return mb_and(ev(f.left), ev(f.right))
        if isinstance(f, Or):
            return mb_or(ev(f.left), ev(f.right))
        if isinstance(f, Implies):
            return mb_imp(ev(f.left), ev(f.right))
        if isinstance(f, Force):
            if _contains_act(f.content, bound):
                if f.force not in valuation.signatures:
                    raise MissingAssignment(f"no signature for force {f.force!r}")
                implication = _pointwise_imp if nested_pointwise else mb_imp
                value = implication(valuation.signatures[f.force], ev(f.content))
            elif valuation.mode is MBMode.FREE:
                key = _act_key(f)
                if key not in valuation.act_values:
                    raise MissingAssignment(f"no act value for {key!r}")
                value = valuation.act_values[key]
            else:
                value = _extend(f.force, f.content, valuation)
            subvalues[_act_key(f)] = value
            return value
        raise TypeError(f"cannot evaluate {f!r}")

    value = ev(resolved)
    admissible = all(not is_standard(v) for v in subvalues.values())
    return EvalOutcome(value, admissible, subvalues)


def _extend(force: str, content: Formula, valuation: MBValuation) -> HyperValue:
    """Value of a force over force-free content from its per-atom generators."""
    connective = valuation.mode is MBMode.CONNECTIVE

    def ext(f: Formula) -> HyperValue:
        if isinstance(f, Atom):
            key = (force, f.name)
            if key not in valuation.generators:
                raise MissingAssignment(f"no generator for force {force!r} on atom {f.name!r}")
            return valuation.generators[key]
        if isinstance(f, Not):
            return content_neg(ext(f.body))
        if isinstance(f, And):
            return (mb_and if connective else pinf)(ext(f.left), ext(f.right))
        if isinstance(f, Or):
            return (mb_or if connective else psup)(ext(f.left), ext(f.right))
        if isinstance(f, Implies):
            if connective:
                return mb_imp(ext(f.left), ext(f.right))
            return psup(content_neg(ext(f.left)), ext(f.right))
        raise TypeError(f"force-free content cannot contain {f!r}")

    return ext(content)


# --- requirement analysis and exhaustive checks ---

@dataclass(frozen=True)
class Requirements:
    """Which slots a formula consumes from a valuation, in evaluation order."""

    atoms: tuple[str, ...]
    acts: tuple[str, ...]
    generators: tuple[tuple[str, str], ...]
    signatures: tuple[str, ...]

    def merge(self, other: "Requirements") -> "Requirements":
        def fuse(a, b):
            combined = dict.fromkeys(a)
            combined.update(dict.fromkeys(b))
            return tuple(combined)

        return Requirements(
            fuse(self.atoms, other.atoms),
            fuse(self.acts, other.acts),
            fuse(self.generators, other.generators),
            fuse(self.signatures, other.signatures),
        )


def requirements(resolved: Formula, mode: MBMode) -> Requirements:
    atoms: dict[str, None] = {}
    acts: dict[str, None] = {}
    generators: dict[tuple[str, str], None] = {}
    signatures: dict[str, None] = {}

    def collect(f: Formula) -> None:
        if isinstance(f, Atom):
            atoms.setdefault(f.name)
        elif isinstance(f, Not):
            collect(f.body)
        elif isinstance(f, (And, Or, Implies)):
            collect(f.left)
            collect(f.right)
        elif isinstance(f, Force):
            if _contains_act(f.content, frozenset()):
                signatures.setdefault(f.force)
                collect(f.content)
            elif mode is MBMode.FREE:
                acts.setdefault(_act_key(f))
            else:
                for atom in atoms_of(f.content):
                    generators.setdefault((f.force, atom))
        elif isinstance(f, ActRef):
            raise ValueError("requirements expects an act-free (resolved) formula")

    collect(resolved)
    return Requirements(tuple(atoms), tuple(acts), tuple(generators), tuple(signatures))


def _slots(reqs: Requirements, algebra: AlgebraSpec) -> list[Slot]:
    elements = tuple(enumerate_elements(algebra))
    nonstandard = tuple(enumerate_nonstandard(algebra))
    slots: list[Slot] = []
    slots += [Slot(("atom", name), elements) for name in reqs.atoms]
    slots += [Slot(("act", key), nonstandard) for key in reqs.acts]
    slots += [Slot(("gen",) + pair, nonstandard) for pair in reqs.generators]
    slots += [Slot(("sig", name), nonstandard) for name in reqs.signatures]
    return slots


def _valuation_from(assignment: dict, algebra: AlgebraSpec, mode: MBMode) -> MBValuation:
    atom_values, act_values, generators, signatures = {}, {}, {}, {}
    for key, value in assignment.items():
        if key[0] == "atom":
            atom_values[key[1]] = value
        elif key[0] == "act":
            act_values[key[1]] = value
        elif key[0] == "gen":
            generators[(key[1], key[2])] = value
        else:
            signatures[key[1]] = value
    return MBValuation(algebra, mode, atom_values, act_values, generators, signatures)


def scan_mb(
    formulas: Sequence[Formula],
    algebra: AlgebraSpec,
    mode: MBMode,
    verdict: Callable[[MBValuation, list[EvalOutcome]], Any],
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
    slot_filter: Optional[Callable[[tuple, tuple], Iterable]] = None,
) -> tuple[Optional[tuple[MBValuation, Any]], int]:
    """First valuation on which verdict(valuation, outcomes) is not None.

    The slots the formulas need are scanned atoms first, then acts,
    generators and signatures, the first slot most significant; every formula
    is evaluated on each valuation. Returns ((valuation, payload) or None,
    number of valuations in the space). slot_filter(key, domain) may shrink a
    slot's domain; returning the domain unchanged keeps the full scan.
    """
    defs = dict(defs or {})
    resolved = [inline_acts(f, defs) for f in formulas]
    reqs = reduce(Requirements.merge, [requirements(r, mode) for r in resolved])
    if slot_filter is None:
        # refuse before any domain is built: 4^k - 2^k values per nonstandard slot
        k = algebra.k
        nonstandard_slots = len(reqs.acts) + len(reqs.generators) + len(reqs.signatures)
        check_budget(2 ** (k * len(reqs.atoms)) * (4 ** k - 2 ** k) ** nonstandard_slots, budget)
    slots = _slots(reqs, algebra)
    if slot_filter is not None:
        slots = [Slot(s.key, tuple(slot_filter(s.key, s.domain))) for s in slots]

    def predicate(assignment: dict) -> Optional[tuple[MBValuation, Any]]:
        valuation = _valuation_from(assignment, algebra, mode)
        outcomes = [_eval_resolved(r, valuation, {}, nested_pointwise=False) for r in resolved]
        payload = verdict(valuation, outcomes)
        return None if payload is None else (valuation, payload)

    hit = first_hit(slots, predicate, budget=budget)
    return (None if hit is None else hit[1]), space_size(slots)


@dataclass(frozen=True)
class MBTautologyResult:
    status: str  # "tautology" | "refuted"
    witness: Optional[MBValuation]
    witness_value: Optional[HyperValue]
    checked: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": None if self.witness is None else valuation_to_json(self.witness),
            "value": None if self.witness_value is None else hyper_to_json(self.witness_value),
            "checked": self.checked,
        }


def is_tautology_mb(
    formula: Formula,
    algebra: AlgebraSpec,
    mode: MBMode,
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    admissible_only: bool = True,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> MBTautologyResult:
    """Scan every valuation of the formula's slots; designated means standard top.

    jobs is accepted for compatibility and does not change the scan.
    """
    top = standard(algebra.top())

    def refutes(_, outcomes: list[EvalOutcome]) -> Optional[HyperValue]:
        (outcome,) = outcomes
        if admissible_only and not outcome.admissible:
            return None
        return None if outcome.value == top else outcome.value

    first, checked = scan_mb([formula], algebra, mode, refutes, defs=defs, budget=budget)
    if first is None:
        return MBTautologyResult("tautology", None, None, checked)
    return MBTautologyResult("refuted", *first, checked)


@dataclass(frozen=True)
class DifferenceResult:
    found: bool
    witness: Optional[MBValuation]
    left_value: Optional[HyperValue]
    right_value: Optional[HyperValue]
    checked: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "witness": None if self.witness is None else valuation_to_json(self.witness),
            "left_value": None if self.left_value is None else hyper_to_json(self.left_value),
            "right_value": None if self.right_value is None else hyper_to_json(self.right_value),
            "checked": self.checked,
        }


def find_difference(
    left: Formula,
    right: Formula,
    algebra: AlgebraSpec,
    mode: MBMode,
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
    slot_filter=None,
) -> DifferenceResult:
    """First joint valuation on which the two formulas take different values.

    slot_filter is passed to scan_mb (e.g. to restrict a generator search).
    """

    def differs(_, outcomes: list[EvalOutcome]):
        lhs, rhs = outcomes
        return None if lhs.value == rhs.value else (lhs.value, rhs.value)

    first, checked = scan_mb(
        [left, right], algebra, mode, differs,
        defs=defs, budget=budget, slot_filter=slot_filter,
    )
    if first is None:
        return DifferenceResult(False, None, None, None, checked)
    valuation, (lhs, rhs) = first
    return DifferenceResult(True, valuation, lhs, rhs, checked)


def find_idempotence_counterexample(
    algebra: AlgebraSpec,
    mode: MBMode,
    *,
    force: str = "f",
    budget: int = DEFAULT_BUDGET,
) -> DifferenceResult:
    """Witness that performing a performance changes its value: F(F(p)) vs F(p)."""
    p = Atom("p")
    return find_difference(
        Force(force, Force(force, p)), Force(force, p), algebra, mode, budget=budget,
    )


def find_neg_swap_counterexample(
    algebra: AlgebraSpec,
    mode: MBMode,
    *,
    force: str = "f",
    budget: int = DEFAULT_BUDGET,
    complementary_only: bool = False,
) -> DifferenceResult:
    """Witness that ~F(p) and F(~p) come apart.

    With complementary_only the generator domain is restricted to values whose
    components are complements; the swap then equals the pointwise complement
    and the search must come back empty.
    """
    p = Atom("p")

    def complementary(key, domain):
        if key[0] in ("gen", "act"):
            return tuple(h for h in domain if h.on_false == complement(h.on_true))
        return domain

    return find_difference(
        Not(Force(force, p)), Force(force, Not(p)), algebra, mode,
        budget=budget, slot_filter=complementary if complementary_only else None,
    )


# --- cyclic acts ---

def default_signatures(defs: Mapping[str, Formula], algebra: AlgebraSpec) -> dict[str, HyperValue]:
    """One fixed nonstandard signature per force: first atom on true, bottom on false."""
    marker = HyperValue(algebra.element([algebra.atoms[0]]), algebra.bottom())
    forces: dict[str, None] = {}
    for body in defs.values():
        for node in walk(body):
            if isinstance(node, Force):
                forces.setdefault(node.force)
    return {name: marker for name in forces}


def unfold_cyclic(
    defs: Mapping[str, Formula],
    act_name: str,
    steps: int,
    seed: HyperValue,
    *,
    valuation: Optional[MBValuation] = None,
) -> HyperValue:
    """Unfold a cyclic act finitely and seed the still-open references.

    The nested implications are evaluated pointwise here: under the
    order-join implication any step over a standard value lands on the top
    and the seed would stop mattering, which is the opposite of what the
    infinite unfolding shows. With the pointwise reading the orbit keeps
    alternating, so distinct seeds stay observable at the same depth.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    defs = dict(defs)
    cyclic = {name for cycle in detect_cycles(defs) for name in cycle}
    if act_name not in cyclic:
        raise NotCyclic(act_name)
    if valuation is None:
        algebra = seed.algebra
        valuation = MBValuation(
            algebra, MBMode.POINTWISE, signatures=default_signatures(defs, algebra)
        )
    if seed.algebra != valuation.algebra:
        raise ValueError("seed is valued outside the valuation's algebra")

    formula: Formula = ActRef(act_name)
    for _ in range(steps):
        formula = unfold_once(formula, defs)
    open_refs = {name for node in walk(formula) if isinstance(node, ActRef)
                 for name in [node.name] if name in cyclic}
    resolved = inline_acts(formula, defs, keep=frozenset(open_refs))
    bindings = {name: normalize(seed) for name in open_refs}
    if isinstance(resolved, ActRef):
        return bindings[resolved.name]
    outcome = _eval_resolved(resolved, valuation, bindings, nested_pointwise=True)
    return outcome.value


# --- JSON for valuations ---

def valuation_to_json(v: MBValuation) -> dict:
    generators: dict[str, dict[str, dict]] = {}
    for (force, atom), value in v.generators.items():
        generators.setdefault(force, {})[atom] = hyper_to_json(value)
    return {
        "algebra": algebra_to_json(v.algebra),
        "mode": v.mode.value,
        "atom_values": {name: element_to_json(e) for name, e in v.atom_values.items()},
        "act_values": {key: hyper_to_json(h) for key, h in v.act_values.items()},
        "generators": generators,
        "signatures": {name: hyper_to_json(h) for name, h in v.signatures.items()},
    }


def valuation_from_json(data: dict, *, default_mode: MBMode = MBMode.POINTWISE) -> MBValuation:
    if not isinstance(data, dict) or "algebra" not in data:
        raise ValueError('a valuation needs an "algebra" entry')
    algebra = algebra_from_json(data["algebra"])
    mode = MBMode(data["mode"]) if "mode" in data else default_mode
    atom_values = {
        name: element_from_json(algebra, e)
        for name, e in data.get("atom_values", {}).items()
    }
    act_values = {
        key: hyper_from_json(algebra, h) for key, h in data.get("act_values", {}).items()
    }
    generators = {
        (force, atom): hyper_from_json(algebra, h)
        for force, per_atom in data.get("generators", {}).items()
        for atom, h in per_atom.items()
    }
    signatures = {
        name: hyper_from_json(algebra, h) for name, h in data.get("signatures", {}).items()
    }
    return MBValuation(algebra, mode, atom_values, act_values, generators, signatures)
