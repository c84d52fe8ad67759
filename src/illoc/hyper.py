"""Nonstandard extension of a finite Boolean algebra, in a decidable normal form.

A member is a one-variable Boolean term function f(a) = (u & a) | (v & ~a),
stored as the pair (u, v) = (f(1), f(0)) together with a finite exception
map. Representations that differ at finitely many points fall into the same
class, so `normalize` drops the exceptions and the pair is the canonical
representative. Constant pairs are the standard copy of the base algebra;
every other value sits strictly below every standard value in the stipulated
order, which makes them Boolean infinitesimals.

Two order-like structures live side by side and are deliberately kept apart:
`pinf`/`psup` are the pointwise lattice operations (componentwise meet/join),
while `hleq`/`osup`/`oinf` follow the stipulated order in which any standard
value dominates any nonstandard one. The top standard value is the maximum
of the whole space, but the bottom standard value is *not* its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .boolalg import (
    AlgebraSpec,
    Element,
    complement,
    element_from_json,
    element_index,
    element_to_json,
    enumerate_elements,
    join,
    leq,
    meet,
)


class StandardInput(ValueError):
    """A standard value was given where only nonstandard values make sense."""


@dataclass(frozen=True)
class HyperValue:
    """Term function (on_true, on_false) = (f(1), f(0)) plus finite exceptions."""

    on_true: Element
    on_false: Element
    exceptions: tuple[tuple[Element, Element], ...] = ()

    def __post_init__(self) -> None:
        pairs = tuple(self.exceptions)
        alg = self.on_true.algebra
        if self.on_false.algebra != alg:
            raise ValueError("on_true and on_false belong to different algebras")
        keys = set()
        for at, value in pairs:
            if at.algebra != alg or value.algebra != alg:
                raise ValueError("exception entries belong to a different algebra")
            if at in keys:
                raise ValueError(f"duplicate exception point {at}")
            keys.add(at)
        object.__setattr__(
            self, "exceptions", tuple(sorted(pairs, key=lambda kv: element_index(kv[0])))
        )

    @property
    def algebra(self) -> AlgebraSpec:
        return self.on_true.algebra

    def __str__(self) -> str:
        if not self.exceptions and self.on_true == self.on_false:
            c = self.on_true
            if not c.atoms:
                return "*0"
            if c.atoms == frozenset(c.algebra.atoms):
                return "*1"
            return f"*{c}"
        body = f"<{self.on_true},{self.on_false}>"
        if self.exceptions:
            patches = ";".join(f"{at}->{value}" for at, value in self.exceptions)
            body = body[:-1] + f" except {patches}>"
        return body


def hyper(
    on_true: Element,
    on_false: Element,
    exceptions: Mapping[Element, Element] | Iterable[tuple[Element, Element]] = (),
) -> HyperValue:
    items = exceptions.items() if isinstance(exceptions, Mapping) else exceptions
    return HyperValue(on_true, on_false, tuple(items))


def standard(c: Element) -> HyperValue:
    """The standard copy of a base-algebra element (a constant function)."""
    return HyperValue(c, c)


def normalize(h: HyperValue) -> HyperValue:
    """Canonical class representative: finite exception sets are invisible."""
    if not h.exceptions:
        return h
    return HyperValue(h.on_true, h.on_false)


def is_standard(h: HyperValue) -> bool:
    return h.on_true == h.on_false


def _same_algebra(h1: HyperValue, h2: HyperValue) -> None:
    if h1.algebra != h2.algebra:
        raise ValueError(
            f"algebra mismatch: {h1.algebra.atoms} vs {h2.algebra.atoms}"
        )


def equivalent(h1: HyperValue, h2: HyperValue) -> bool:
    _same_algebra(h1, h2)
    return normalize(h1) == normalize(h2)


def pinf(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Pointwise greatest lower bound: componentwise meet."""
    _same_algebra(h1, h2)
    a, b = normalize(h1), normalize(h2)
    return HyperValue(meet(a.on_true, b.on_true), meet(a.on_false, b.on_false))


def psup(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Pointwise least upper bound: componentwise join."""
    _same_algebra(h1, h2)
    a, b = normalize(h1), normalize(h2)
    return HyperValue(join(a.on_true, b.on_true), join(a.on_false, b.on_false))


def hneg(h: HyperValue) -> HyperValue:
    """Pointwise complement."""
    a = normalize(h)
    return HyperValue(complement(a.on_true), complement(a.on_false))


def content_neg(h: HyperValue) -> HyperValue:
    """Precompose with complement: a |-> f(~a).

    Swaps the components; exception points move to their complements.
    A force applied to negated content evaluates to exactly this value.
    """
    remapped = tuple((complement(at), value) for at, value in h.exceptions)
    return HyperValue(h.on_false, h.on_true, remapped)


def hleq(h1: HyperValue, h2: HyperValue) -> bool:
    """The stipulated order: standard values dominate every nonstandard value.

    Standard pairs compare through the base algebra; nonstandard pairs
    compare componentwise; a nonstandard value is below every standard one
    and never above any.
    """
    _same_algebra(h1, h2)
    a, b = normalize(h1), normalize(h2)
    sa, sb = is_standard(a), is_standard(b)
    if sa and sb:
        return leq(a.on_true, b.on_true)
    if sa:
        return False
    if sb:
        return True
    return leq(a.on_true, b.on_true) and leq(a.on_false, b.on_false)


def osup(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Join along the stipulated order.

    Mixed pairs resolve to the standard operand: it bounds both, and every
    upper bound of a standard value is standard and at least it. Nonstandard
    pairs take the componentwise join, which may collapse to a constant.
    """
    _same_algebra(h1, h2)
    a, b = normalize(h1), normalize(h2)
    sa, sb = is_standard(a), is_standard(b)
    if sa and sb:
        return standard(join(a.on_true, b.on_true))
    if sa:
        return a
    if sb:
        return b
    return psup(a, b)


def oinf(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Meet along the stipulated order; dual of `osup`."""
    _same_algebra(h1, h2)
    a, b = normalize(h1), normalize(h2)
    sa, sb = is_standard(a), is_standard(b)
    if sa and sb:
        return standard(meet(a.on_true, b.on_true))
    if sa:
        return b
    if sb:
        return a
    return pinf(a, b)


class OppositionCase(Enum):
    """How a nonstandard value relates to its content negation.

    DISJOINT: the components never overlap, so the value meets its content
    negation at the standard bottom (equivalently, its complement dominates
    the content negation). EXHAUSTIVE: the components cover the algebra, so
    the join reaches the standard top. INCOMPARABLE: neither comparison holds.
    """

    DISJOINT = "disjoint"
    EXHAUSTIVE = "exhaustive"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OppositionClassification:
    cases: frozenset[OppositionCase]
    inf_with_content_neg: HyperValue
    sup_with_content_neg: HyperValue

    def to_json(self) -> dict:
        order = (OppositionCase.DISJOINT, OppositionCase.EXHAUSTIVE, OppositionCase.INCOMPARABLE)
        return {
            "cases": [c.value for c in order if c in self.cases],
            "inf_with_content_neg": hyper_to_json(self.inf_with_content_neg),
            "sup_with_content_neg": hyper_to_json(self.sup_with_content_neg),
        }


def classify_opposition(h: HyperValue) -> OppositionClassification:
    """Sort a nonstandard value into the (possibly overlapping) case set.

    The witnesses pinf(h, content_neg(h)) and psup(h, content_neg(h)) are
    always the standard values of on_true & on_false and on_true | on_false.
    """
    n = normalize(h)
    if is_standard(n):
        raise StandardInput("opposition cases are only defined for nonstandard values")
    cn = content_neg(n)
    cases = set()
    spec = n.algebra
    if meet(n.on_true, n.on_false) == spec.bottom():
        cases.add(OppositionCase.DISJOINT)
    if join(n.on_true, n.on_false) == spec.top():
        cases.add(OppositionCase.EXHAUSTIVE)
    if not cases:
        cases.add(OppositionCase.INCOMPARABLE)
    return OppositionClassification(
        cases=frozenset(cases),
        inf_with_content_neg=pinf(n, cn),
        sup_with_content_neg=psup(n, cn),
    )


@dataclass(frozen=True)
class SquareReport:
    """The four opposition relations for h, its content negation and their complements."""

    value: HyperValue          # the act value
    content_negated: HyperValue
    holds: bool                # content_neg(h) <= hneg(h) in the stipulated order
    contrary: bool             # pinf(h, content_neg(h)) is the standard bottom
    contradictory: bool        # complement pair meets at *0 and joins at *1
    subcontrary: bool          # psup of the two complements is the standard top
    subaltern_left: bool       # h <= hneg(content_neg(h))
    subaltern_right: bool      # content_neg(h) <= hneg(h)
    contrary_inf: HyperValue
    contradictory_inf: HyperValue
    contradictory_sup: HyperValue
    subcontrary_sup: HyperValue

    def to_json(self) -> dict:
        return {
            "value": hyper_to_json(self.value),
            "content_negated": hyper_to_json(self.content_negated),
            "holds": self.holds,
            "relations": {
                "contrary": {"holds": self.contrary, "inf": hyper_to_json(self.contrary_inf)},
                "contradictory": {
                    "holds": self.contradictory,
                    "inf": hyper_to_json(self.contradictory_inf),
                    "sup": hyper_to_json(self.contradictory_sup),
                },
                "subcontrary": {
                    "holds": self.subcontrary,
                    "sup": hyper_to_json(self.subcontrary_sup),
                },
                "subaltern_left": {"holds": self.subaltern_left},
                "subaltern_right": {"holds": self.subaltern_right},
            },
        }


def square_report(h: HyperValue) -> SquareReport:
    """Check the square of opposition for a nonstandard value.

    All four relations reduce to the components of h being disjoint, except
    the contradictory pair, which holds by the complement laws regardless.
    """
    n = normalize(h)
    if is_standard(n):
        raise StandardInput("the square is only defined for nonstandard values")
    spec = n.algebra
    cn = content_neg(n)
    neg = hneg(n)
    neg_cn = hneg(cn)
    bot, top = standard(spec.bottom()), standard(spec.top())
    contrary_inf = pinf(n, cn)
    contradictory_inf = pinf(n, neg)
    contradictory_sup = psup(n, neg)
    subcontrary_sup = psup(neg_cn, neg)
    return SquareReport(
        value=n,
        content_negated=cn,
        holds=hleq(cn, neg),
        contrary=contrary_inf == bot,
        contradictory=contradictory_inf == bot and contradictory_sup == top,
        subcontrary=subcontrary_sup == top,
        subaltern_left=hleq(n, neg_cn),
        subaltern_right=hleq(cn, neg),
        contrary_inf=contrary_inf,
        contradictory_inf=contradictory_inf,
        contradictory_sup=contradictory_sup,
        subcontrary_sup=subcontrary_sup,
    )


def enumerate_hypervalues(spec: AlgebraSpec) -> Iterator[HyperValue]:
    """All normalized values, ordered by (index of on_true, index of on_false)."""
    for u in enumerate_elements(spec):
        for v in enumerate_elements(spec):
            yield HyperValue(u, v)


def enumerate_nonstandard(spec: AlgebraSpec) -> Iterator[HyperValue]:
    for h in enumerate_hypervalues(spec):
        if not is_standard(h):
            yield h


def hyper_to_json(h: HyperValue) -> dict:
    if not h.exceptions and is_standard(h):
        return {"standard": element_to_json(h.on_true)}
    data: dict = {
        "on_true": element_to_json(h.on_true),
        "on_false": element_to_json(h.on_false),
    }
    if h.exceptions:
        data["exceptions"] = [
            {"at": element_to_json(at), "value": element_to_json(value)}
            for at, value in h.exceptions
        ]
    return data


def hyper_from_json(spec: AlgebraSpec, data: dict) -> HyperValue:
    if not isinstance(data, dict):
        raise ValueError("a hypervalue is a JSON object")
    if "standard" in data:
        return standard(element_from_json(spec, data["standard"]))
    try:
        on_true = element_from_json(spec, data["on_true"])
        on_false = element_from_json(spec, data["on_false"])
    except KeyError as missing:
        raise ValueError(f"hypervalue is missing {missing}") from None
    entries = data.get("exceptions", [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and {"at", "value"} <= entry.keys() for entry in entries
    ):
        raise ValueError('exceptions are a list of {"at": element, "value": element}')
    exceptions = tuple(
        (element_from_json(spec, entry["at"]), element_from_json(spec, entry["value"]))
        for entry in entries
    )
    return HyperValue(on_true, on_false, exceptions)
