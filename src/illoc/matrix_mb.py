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
signature value through the matrix implication, in every mode. `lower` makes
that choice while it lowers a scan's formulas into one register program.
Act references are inlined first, and only when there are definitions: with
none, lowering raises UnknownActRef at the first reference.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .boolalg import (
    AlgebraSpec,
    Element,
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_index,
    element_to_json,
)
from .hyper import (
    HyperValue,
    decode,
    decode_element,
    encode,
    hyper_from_json,
    hyper_to_json,
    is_standard,
    normalize,
    packed_ops,
)
from .program import Program, schedule
from .record import Record
from .search import DEFAULT_BUDGET, check_budget
from .syntax import (
    ActRef,
    And,
    Atom,
    Force,
    Formula,
    Implies,
    Not,
    Or,
    UnknownActRef,
    detect_cycles,
    format_formula,
    inline_acts,
    substitute,
    walk,
)

__all__ = [
    "MBMode",
    "MBValuation",
    "EvalOutcome",
    "MissingAssignment",
    "StandardAssignment",
    "NotCyclic",
    "eval_mb",
    "is_tautology_mb",
    "find_difference",
    "find_idempotence_counterexample",
    "find_neg_swap_counterexample",
    "unfold_cyclic",
    "scan_mb",
    "MBScan",
    "slot_keys",
    "valuation_to_json",
    "valuation_from_json",
]


class MissingAssignment(ValueError):
    """The valuation lacks a value the formula needs."""


class StandardAssignment(ValueError):
    """An act value, generator, or signature was standard after normalization."""


class NotCyclic(ValueError):
    """The named act is not part of any definition cycle."""

    def __str__(self) -> str:
        return f"act {self.args[0]!r} is in no cycle of definitions"


class MBMode(Enum):
    FREE = "free"
    POINTWISE = "pointwise"
    CONNECTIVE = "connective"

    # a member equals only itself: hashed by identity in C, not by name in Python
    __hash__ = object.__hash__


class MBValuation(Record):
    """Values for the slots of a formula; a map left out is a fresh empty dict."""

    __slots__ = ("algebra", "mode", "atom_values", "act_values", "generators", "signatures")

    def __init__(
        self,
        algebra: AlgebraSpec,
        mode: MBMode = MBMode.POINTWISE,
        atom_values: Optional[Mapping[str, Element]] = None,
        act_values: Optional[Mapping[str, HyperValue]] = None,
        generators: Optional[Mapping[tuple[str, str], HyperValue]] = None,
        signatures: Optional[Mapping[str, HyperValue]] = None,
    ) -> None:
        atom_values = dict(atom_values or {})
        for name, value in atom_values.items():
            if value.algebra != algebra:
                raise ValueError(f"atom {name!r} is valued outside the algebra")
        _fill(self, algebra, mode, atom_values, _nonstandard("act", act_values, algebra),
              _nonstandard("generator", generators, algebra),
              _nonstandard("signature", signatures, algebra))


def _fill(v: MBValuation, *fields) -> MBValuation:
    """v with its fields set, in slot order, to values already checked and normalized."""
    for set_field, value in zip(MBValuation._setters, fields):
        set_field(v, value)
    return v


def _nonstandard(label: str, mapping: Optional[Mapping], algebra: AlgebraSpec) -> dict:
    """A new dict of mapping's values, normalized; each must be a nonstandard value."""
    normalized: dict = {}
    if not mapping:
        return normalized
    for key, value in mapping.items():
        if value.algebra != algebra:
            raise ValueError(f"{label} {key!r} is valued outside the algebra")
        value = normalize(value)
        if is_standard(value):
            raise StandardAssignment(f"{label} {key!r} must be nonstandard")
        normalized[key] = value
    return normalized


class EvalOutcome(Record):
    __slots__ = ("value", "admissible", "subvalues")

    def to_json(self) -> dict:
        return {
            "value": hyper_to_json(self.value),
            "admissible": self.admissible,
            "subvalues": {key: hyper_to_json(v) for key, v in self.subvalues.items()},
        }


# --- the register program ---

# what a valuation that lacks a leaf's value is told, by the kind of the leaf's key
_MISSING = {"atom": "no value for atom {!r}", "act": "no act value for {!r}",
            "gen": "no generator for force {!r} on atom {!r}",
            "sig": "no signature for force {!r}", "ref": "no value for act {!r}"}

# the kinds of slot a scan varies, in scan order; a bound reference's leaf is never scanned
_KINDS = ("atom", "act", "gen", "sig")


class MBProgram(Program):
    """The program of one lowering and what lowering keeps beside it: the
    bound act names and each formula's force nodes with their registers."""

    __slots__ = ("bound", "forces")

    def __init__(self, bound: frozenset[str]) -> None:
        super().__init__()
        self.bound = bound
        self.forces: list[list[tuple[Force, int]]] = []  # per formula

    def order(self) -> list[tuple]:
        """The leaves a scan varies, in scan order: each kind's in `_KINDS`, first seen first."""
        leaves = self.leaves
        return [key for kind in _KINDS for key in leaves if key[0] == kind]


@lru_cache(maxsize=None)
def _lowering(mode: MBMode, k: int, nested_pointwise: bool) -> Callable[..., int]:
    """How one mode over k atoms lowers a node into a program, returning its
    register; built once per (mode, k, nested_pointwise), beside
    `packed_ops(k)`, and dispatched on the node's type."""
    ops = packed_ops(k)
    unit = (1 << k) + 1

    def standard(e: int, _: int) -> int:  # the standard copy of element e
        return e * unit

    matrix = {Not: ops.neg, And: ops.and_, Or: ops.or_, Implies: ops.imp}
    # how a force extends its generators through its content's connectives
    content = {**matrix, Not: ops.content_neg} if mode is MBMode.CONNECTIVE else {
        Not: ops.content_neg, And: operator.and_, Or: operator.or_,
        Implies: lambda a, b: ops.content_neg(a) | b}
    force_imp = ops.pointwise_imp if nested_pointwise else ops.imp
    free = mode is MBMode.FREE

    def has_act(f: Formula) -> bool:
        # whether a force or a reference occurs anywhere in f
        t = type(f)
        if t is Atom:
            return False
        if t is Not:
            return has_act(f.body)
        if t is Force or t is ActRef:
            return True
        return has_act(f.left) or has_act(f.right)

    def node(f: Formula, p: MBProgram, force: Optional[str] = None) -> int:
        # force is None in the matrix; in the force-free content of a force it
        # is the force's name, and the content takes its value from that
        # force's generators, one per atom, through the content's connectives;
        # leaves and instructions are numbered as in `Program.leaf` and `emit`
        t = type(f)
        if t is Atom:
            leaves = p.leaves
            if force is not None:
                return ~leaves.setdefault(("gen", force, f.name), len(leaves))
            a, code = ~leaves.setdefault(("atom", f.name), len(leaves)), p.instructions
            return code.setdefault((standard, a, a), len(code))
        connectives = matrix if force is None else content
        if t in connectives:  # a negation reads its one operand twice
            a = node(f.body if t is Not else f.left, p, force)
            b = a if t is Not else node(f.right, p, force)
            code = p.instructions
            return code.setdefault((connectives[t], a, b), len(code))
        leaves = p.leaves
        if t is Force:
            if has_act(f.content):
                a = ~leaves.setdefault(("sig", f.force), len(leaves))
                b, code = node(f.content, p), p.instructions
                x = code.setdefault((force_imp, a, b), len(code))
            elif free:
                x = ~leaves.setdefault(("act", format_formula(f)), len(leaves))
            else:
                x = node(f.content, p, f.force)
            p.forces[-1].append((f, x))
            return x
        if t is ActRef:
            if f.name not in p.bound:
                raise UnknownActRef(f.name)
            return ~leaves.setdefault(("ref", f.name), len(leaves))
        raise TypeError(f"cannot evaluate {f!r}")

    return node


def lower(resolved: Sequence[Formula], mode: MBMode, k: int, *,
          bound: frozenset[str] = frozenset(),
          nested_pointwise: bool = False) -> tuple[MBProgram, list[int]]:
    """One program for act-free formulas, and the register of each one's root.

    Its leaves are slot keys: ("atom", name), ("act", key), ("gen", force,
    atom), ("sig", force) and, for a reference in bound, ("ref", name); any
    other reference raises UnknownActRef. They come in evaluation order, a
    force's signature before its content. Whether a force reads a signature,
    an act value or generators is decided here.
    """
    program = MBProgram(bound)
    node = _lowering(mode, k, nested_pointwise)
    roots = []
    for f in resolved:
        program.forces.append([])
        roots.append(node(f, program))
    return program, roots


class MBScan:
    """A scan of the nonstandard matrix: a program linked with slot key
    keys[i] in register i, and the valuation it is visiting.

    `roots` are the linked registers of the formulas' roots. A verdict gets
    this object and the codes of the formulas on the current valuation;
    `admissible`, `decode`, `outcome` and `valuation` read its registers
    only when the verdict asks.
    """

    __slots__ = ("keys", "code", "_table", "roots", "algebra", "mode", "_forces", "_linked",
                 "registers", "_is_standard", "_subvalue_keys")

    def __init__(self, algebra: AlgebraSpec, mode: MBMode, keys: Iterable[tuple],
                 program: MBProgram, roots: Sequence[int]):
        self.keys = tuple(keys)
        self.code, self._table = program.link(self.keys)
        self.roots = [self._table[x] for x in roots]
        self.algebra, self.mode = algebra, mode
        self._forces, self._linked = program.forces, None
        self.registers: list[int] = []
        self._is_standard = packed_ops(algebra.k).is_standard
        self._subvalue_keys: dict[int, dict[str, int]] = {}

    @property
    def forces(self) -> list[list[tuple[Force, int]]]:
        """Each formula's force nodes and their linked registers, linked at the first ask."""
        if self._linked is None:
            self._linked = [[(node, self._table[x]) for node, x in found] for found in self._forces]
        return self._linked

    def run(self, domains: Sequence[Sequence[int]],
            verdict: Callable[["MBScan", list[int]], Any]) -> Any:
        """The first payload, in mixed-radix order over domains (one per key,
        the first most significant, each in its order), for which
        verdict(self, codes) is not None; None when there is none, and at
        once when a domain is empty.

        The valuations come from `program.schedule`, and an instruction
        calls its op on packed ints.
        """
        roots = self.roots
        r = self.registers = [0] * (len(domains) + len(self.code))
        for block, steps in schedule(r, self.code, domains):
            for values, code in steps:
                r[block] = values
                for op, o, a, b in code:
                    r[o] = op(r[a], r[b])
                payload = verdict(self, [r[x] for x in roots])
                if payload is not None:
                    return payload
        return None

    def admissible(self, i: int) -> bool:
        """No act subvalue of formula i is standard on the current valuation."""
        r, is_standard = self.registers, self._is_standard
        for _, x in self.forces[i]:
            if is_standard(r[x]):
                return False
        return True

    def decode(self, code: int) -> HyperValue:
        return decode(self.algebra, code)

    def outcome(self, i: int) -> EvalOutcome:
        keys = self._subvalue_keys.get(i)
        if keys is None:  # printed once per scan, only for a verdict that asks
            keys = self._subvalue_keys[i] = {format_formula(f): x for f, x in self.forces[i]}
        r = self.registers
        subvalues = {key: self.decode(r[x]) for key, x in keys.items()}
        return EvalOutcome(self.decode(r[self.roots[i]]), self.admissible(i), subvalues)

    def valuation(self) -> MBValuation:
        """The current valuation, whose codes `_slot_domains` checked: not checked again."""
        algebra = self.algebra
        parts: dict[str, dict] = {"atom": {}, "act": {}, "gen": {}, "sig": {}}
        for key, code in zip(self.keys, self.registers):  # the slot registers
            kind = key[0]
            if kind == "atom":
                parts[kind][key[1]] = decode_element(algebra, code)
            else:
                parts[kind][key[1:] if kind == "gen" else key[1]] = decode(algebra, code)
        return _fill(MBValuation.__new__(MBValuation), algebra, self.mode, *parts.values())


def _visit(resolved: Formula, valuation: MBValuation,
           extra: Optional[Mapping[tuple, int]] = None, **lowering) -> MBScan:
    """A one-valuation scan of a formula over what valuation (and extra) assigns.

    The first leaf with no value raises MissingAssignment.
    """
    program, roots = lower([resolved], valuation.mode, valuation.algebra.k, **lowering)
    codes = {
        **{("atom", name): element_index(e) for name, e in valuation.atom_values.items()},
        **{("act", key): encode(h) for key, h in valuation.act_values.items()},
        **{("gen",) + pair: encode(h) for pair, h in valuation.generators.items()},
        **{("sig", name): encode(h) for name, h in valuation.signatures.items()},
        **(extra or {}),
    }
    keys = program.leaves
    for key in keys:
        if key not in codes:
            raise MissingAssignment(_MISSING[key[0]].format(*key[1:]))
    scan = MBScan(valuation.algebra, valuation.mode, keys, program, roots)
    return scan.run([(codes[key],) for key in keys], lambda scan, _: scan)


def eval_mb(
    formula: Formula,
    valuation: MBValuation,
    defs: Optional[Mapping[str, Formula]] = None,
) -> EvalOutcome:
    return _visit(inline_acts(formula, defs) if defs else formula, valuation).outcome(0)


# --- exhaustive checks ---

def slot_keys(resolved: Sequence[Formula], mode: MBMode) -> list[tuple]:
    """The leaves of the formulas' program in the order `scan_mb` scans them (any k: K1)."""
    return lower(resolved, mode, 1)[0].order()


@lru_cache(maxsize=16)
def _nonstandard_codes(k: int) -> tuple[int, ...]:
    """The nonstandard values of the k-atom algebra packed, in `enumerate_nonstandard`'s order."""
    return tuple(u | v << k for u in range(1 << k) for v in range(1 << k) if u != v)


def _slot_domains(order: Sequence[tuple], k: int, domains: Mapping[str, Sequence[int]],
                  budget: int) -> tuple[list, int]:
    """The domain of each slot of a lowering's scan order over k atoms, and
    the size of the space.

    A slot takes its kind's given domain, or every value of its kind. A
    given domain of an unknown kind, or with a code its kind cannot take,
    raises ValueError; the message names the kind's first slot, and the
    domain of a kind with no slot is not checked. The space is sized from
    the domains' lengths and refused over budget before any domain is
    built, and a nonstandard domain is built only for a scan with a slot
    that needs it.
    """
    for kind in domains:
        if kind not in _KINDS:
            raise ValueError(f"unknown slot kind {kind!r}")
    low = (1 << k) - 1
    size, last = 1, None
    for key in order:
        kind = key[0]
        atom = kind == "atom"
        if kind not in domains:
            size *= 2 ** k if atom else 4 ** k - 2 ** k
            continue
        if kind != last:  # the kind's first slot: order lists each kind's slots together
            for code in domains[kind]:
                if (not 0 <= code < 1 << (k if atom else 2 * k)
                        or not atom and code & low == code >> k):
                    raise ValueError(f"{code} is outside the domain of slot {key!r}")
            last = kind
        size *= len(domains[kind])
    check_budget(size, budget)
    return [domains[key[0]] if key[0] in domains
            else range(1 << k) if key[0] == "atom"  # binary-counting order, as `enumerate_elements`
            else _nonstandard_codes(k) for key in order], size


def scan_mb(
    formulas: Sequence[Formula],
    algebra: AlgebraSpec,
    mode: MBMode,
    verdict: Callable[[MBScan, list[int]], Any],
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
    domains: Optional[Mapping[str, Sequence[int]]] = None,
) -> tuple[Optional[tuple[MBValuation, Any]], int]:
    """First valuation on which verdict(scan, codes) is not None.

    The formulas are lowered once into one program, whose leaves are the
    slots (`slot_keys`), scanned atoms first, then acts, generators and
    signatures, the first slot most significant, each kind's first seen
    first (`MBProgram.order`); the register table that links the program to
    that order and the size of the space come from it. `MBScan.run` runs
    the program; codes holds the formulas' packed values and scan (the
    MBScan) decodes the valuation on demand, and the witness is decoded
    once, when a verdict hits. Returns
    ((valuation, payload) or None, number of valuations in the space).
    domains maps a slot kind ("atom", "act", "gen" or "sig") to the codes,
    in scan order, that its slots take in place of every value of the kind.
    The space is sized from the domains' lengths and refused over the
    budget before any slot's domain is built.
    """
    k = algebra.k
    program, roots = lower([inline_acts(f, defs) for f in formulas] if defs else formulas, mode, k)
    order = program.order()
    slots, size = _slot_domains(order, k, domains or {}, budget)
    scan = MBScan(algebra, mode, order, program, roots)
    payload = scan.run(slots, verdict)
    return None if payload is None else (scan.valuation(), payload), size


class MBTautologyResult(Record):
    """`status` is "tautology" or "refuted"; a refutation holds its first witness."""

    __slots__ = ("status", "witness", "witness_value", "checked")

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
    top = packed_ops(algebra.k).top

    def refutes(scan: MBScan, codes: list[int]) -> Optional[HyperValue]:
        (code,) = codes
        if code == top or (admissible_only and not scan.admissible(0)):
            return None
        return scan.decode(code)

    first, checked = scan_mb([formula], algebra, mode, refutes, defs=defs, budget=budget)
    if first is None:
        return MBTautologyResult("tautology", None, None, checked)
    return MBTautologyResult("refuted", *first, checked)


class DifferenceResult(Record):
    __slots__ = ("found", "witness", "left_value", "right_value", "checked")


def find_difference(
    left: Formula,
    right: Formula,
    algebra: AlgebraSpec,
    mode: MBMode,
    *,
    defs: Optional[Mapping[str, Formula]] = None,
    budget: int = DEFAULT_BUDGET,
    domains: Optional[Mapping[str, Sequence[int]]] = None,
) -> DifferenceResult:
    """First joint valuation on which the two formulas take different values.

    domains is passed to scan_mb (e.g. to restrict a generator search).
    """

    def differs(scan: MBScan, codes: list[int]):
        lhs, rhs = codes
        return None if lhs == rhs else (scan.decode(lhs), scan.decode(rhs))

    first, checked = scan_mb(
        [left, right], algebra, mode, differs,
        defs=defs, budget=budget, domains=domains,
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
    p, domains = Atom("p"), None
    if complementary_only:
        k = algebra.k
        low = (1 << k) - 1
        complementary = tuple(u | (u ^ low) << k for u in range(1 << k))
        domains = {"gen": complementary, "act": complementary}
    return find_difference(
        Not(Force(force, p)), Force(force, Not(p)), algebra, mode,
        budget=budget, domains=domains,
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
    """Unfold a cyclic act finitely and seed every cyclic reference left.

    The nested implications are evaluated pointwise here: under the
    order-join implication any step over a standard value lands on the top
    and the seed would stop mattering, which is the opposite of what the
    infinite unfolding shows. With the pointwise reading the orbit keeps
    alternating, so distinct seeds stay observable at the same depth.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    defs = dict(defs)
    if act_name not in defs:
        raise UnknownActRef(act_name)
    cyclic = frozenset(name for cycle in detect_cycles(defs) for name in cycle)
    if act_name not in cyclic:
        raise NotCyclic(act_name)
    if valuation is None:
        algebra = seed.algebra
        valuation = MBValuation(
            algebra, MBMode.POINTWISE, signatures=default_signatures(defs, algebra)
        )
    if seed.algebra != valuation.algebra:
        raise ValueError("seed is valued outside the valuation's algebra")

    # every act's tree after the rounds so far: round 0 inlines the acyclic acts and
    # keeps each cyclic one a reference, and each later round puts the last round's
    # trees in place of every definition's references, so the rounds share subtrees
    trees = {name: inline_acts(ActRef(name), defs, keep=cyclic) for name in defs}
    for _ in range(steps):
        last = trees
        trees = {name: substitute(body, lambda leaf: leaf if isinstance(leaf, Atom)
                                  else last[leaf.name]) for name, body in defs.items()}
    seeded = {("ref", name): encode(seed) for name in cyclic}  # the seed's normal form
    scan = _visit(trees[act_name], valuation, seeded, bound=cyclic, nested_pointwise=True)
    return scan.decode(scan.registers[scan.roots[0]])


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


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {data!r}")
    return data


def valuation_from_json(data: dict, *, default_mode: MBMode = MBMode.POINTWISE) -> MBValuation:
    if not isinstance(data, dict) or "algebra" not in data:
        raise ValueError('a valuation needs an "algebra" entry')
    algebra = algebra_from_json(data["algebra"])
    mode = MBMode(data["mode"]) if "mode" in data else default_mode

    def section(name: str) -> dict:
        return _json_object(data.get(name, {}), f'"{name}"')

    atom_values = {
        name: element_from_json(algebra, e) for name, e in section("atom_values").items()
    }
    act_values = {
        key: hyper_from_json(algebra, h) for key, h in section("act_values").items()
    }
    generators = {
        (force, atom): hyper_from_json(algebra, h)
        for force, per_atom in section("generators").items()
        for atom, h in _json_object(per_atom, f"generators of {force!r}").items()
    }
    signatures = {
        name: hyper_from_json(algebra, h) for name, h in section("signatures").items()
    }
    return MBValuation(algebra, mode, atom_values, act_values, generators, signatures)
