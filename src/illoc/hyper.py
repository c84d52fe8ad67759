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
while `hleq` is the stipulated order, in which any standard value dominates
any nonstandard one. The top standard value is the maximum of the whole
space, but the bottom standard value is *not* its minimum. The order is no
lattice, and `osup`/`oinf` are not its join/meet but the componentwise
join/meet of two values of one kind, or a mixed pair's standard/nonstandard
operand: at K1 `osup(<{a},{}>, <{},{a}>)` is `*1`, but the pair's least upper
bound is `*0`, and at K2 the pair has two minimal upper bounds and no join.

Every operation runs on packed values. An element of the k-atom algebra is
a k-bit int with bit i for atom i (the order of `element_index`), and a
hypervalue (u, v) is u | v << k, so a value is standard when its two halves
are equal. `packed_ops(k)` holds each operation once, as a few bit
operations with one code path for any k up to the atom cap; the functions
on `HyperValue` objects encode their operands, run it and decode the
result. Only `content_neg` stays on objects, because it keeps the exception
points. Elsewhere values become `Element`/`HyperValue` objects only where a
caller keeps them: a witness, a table row, the outcome of `eval_mb`.
`decode`/`decode_element` keep the 4,096 values and elements, of any
algebras, built most recently, keyed by the algebra's atom names, so a check
that decodes the same code again gets the same object without building and
validating it again, and without hashing an `AlgebraSpec`.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .boolalg import (
    AlgebraSpec,
    Element,
    complement,
    element_from_json,
    element_index,
    element_to_json,
    enumerate_elements,
    same_algebra,
)
from .record import Record, setfield


class StandardInput(ValueError):
    """A standard value was given where only nonstandard values make sense."""


class HyperValue(Record):
    """Term function (on_true, on_false) = (f(1), f(0)) plus finite exceptions."""

    __slots__ = ("on_true", "on_false", "exceptions")

    def __init__(self, on_true: Element, on_false: Element,
                 exceptions: Iterable[tuple[Element, Element]] = ()) -> None:
        setfield(self, "on_true", on_true)
        setfield(self, "on_false", on_false)
        pairs = tuple(exceptions)
        alg = on_true.algebra
        if on_false.algebra != alg:
            raise ValueError("on_true and on_false belong to different algebras")
        keys = set()
        for at, value in pairs:
            if at.algebra != alg or value.algebra != alg:
                raise ValueError("exception entries belong to a different algebra")
            if at in keys:
                raise ValueError(f"duplicate exception point {at}")
            keys.add(at)
        setfield(self, "exceptions", tuple(sorted(pairs, key=lambda kv: element_index(kv[0]))))

    @property
    def algebra(self) -> AlgebraSpec:
        return self.on_true.algebra

    def __str__(self) -> str:
        if not self.exceptions and self.on_true.atoms == self.on_false.atoms:  # one algebra
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
    return h.on_true.atoms == h.on_false.atoms  # the two share an algebra


# --- packed values ---


class PackedOps(NamedTuple):
    """Every operation on the packed values of a k-atom algebra.

    neg and content_neg ignore a second operand, as a register program passes one.
    """

    top: int  # the standard top
    is_standard: Callable[[int], bool]
    neg: Callable[[int], int]
    content_neg: Callable[[int], int]
    pinf: Callable[[int, int], int]
    psup: Callable[[int, int], int]
    osup: Callable[[int, int], int]
    oinf: Callable[[int, int], int]
    leq: Callable[[int, int], bool]
    and_: Callable[[int, int], int]
    or_: Callable[[int, int], int]
    imp: Callable[[int, int], int]
    pointwise_imp: Callable[[int, int], int]


@lru_cache(maxsize=None)
def packed_ops(k: int) -> PackedOps:
    low = (1 << k) - 1
    full = (1 << 2 * k) - 1

    def is_standard(h):
        return h & low == h >> k

    def neg(h, _=None):  # pointwise complement
        return h ^ full

    def content_neg(h, _=None):  # precompose with complement: swap the halves
        return h >> k | (h & low) << k

    def osup(a, b):
        # componentwise join, or a mixed pair's standard operand: not the order's join
        sa, sb = a & low == a >> k, b & low == b >> k
        if sa == sb:
            return a | b
        return a if sa else b

    def oinf(a, b):
        # componentwise meet, or a mixed pair's nonstandard operand
        sa, sb = a & low == a >> k, b & low == b >> k
        if sa == sb:
            return a & b
        return b if sa else a

    def leq(a, b):
        # the stipulated order: standard values dominate every nonstandard one
        sa, sb = a & low == a >> k, b & low == b >> k
        if sa == sb:
            return a & ~b == 0
        return sb

    def and_(a, b):
        # base meet on standard pairs, the pointwise join on nonstandard ones;
        # a mixed pair meets at its nonstandard operand
        sa, sb = a & low == a >> k, b & low == b >> k
        if sa == sb:
            return a & b if sa else a | b
        return b if sa else a

    def or_(a, b):
        sa, sb = a & low == a >> k, b & low == b >> k
        if sa == sb:
            return a | b if sa else a & b
        return a if sa else b

    def imp(a, b):  # complement of the order-join, joined pointwise with b
        return osup(a, b) ^ full | b

    def pointwise_imp(a, b):
        # componentwise ~a | b; used only for unfolding cyclic acts, where the
        # order-join reading would erase the dependence on the innermost value
        return a ^ full | b

    return PackedOps(
        top=full, is_standard=is_standard, neg=neg, content_neg=content_neg,
        pinf=operator.and_, psup=operator.or_, osup=osup, oinf=oinf, leq=leq,
        and_=and_, or_=or_, imp=imp, pointwise_imp=pointwise_imp,
    )


def encode(h: HyperValue) -> int:
    """The packed value of h's normal form (finite exceptions are invisible)."""
    return element_index(h.on_true) | element_index(h.on_false) << h.algebra.k


# What `decode_element` and `decode` built, keyed by (algebra.atoms, code): a
# tuple of names and an int hash and compare in C, where an AlgebraSpec would
# go through `Record.__hash__` and, for an equal algebra built apart,
# `Record.__eq__`. Each keeps the DECODE_CACHE_SIZE entries built most recently.
DECODE_CACHE_SIZE = 4096
_elements: dict[tuple[tuple[str, ...], int], Element] = {}
_values: dict[tuple[tuple[str, ...], int], HyperValue] = {}


def _keep(cache: dict, key: tuple, value):
    if len(cache) >= DECODE_CACHE_SIZE:
        del cache[next(iter(cache))]  # the oldest: a dict keeps insertion order
    cache[key] = value
    return value


def decode_element(algebra: AlgebraSpec, code: int) -> Element:
    """The element whose atoms are the set bits of a k-bit code."""
    key = algebra.atoms, code
    try:
        return _elements[key]
    except KeyError:
        return _keep(_elements, key, Element(
            algebra, frozenset(a for i, a in enumerate(algebra.atoms) if code >> i & 1)))


def decode(algebra: AlgebraSpec, code: int) -> HyperValue:
    """The normal form of a packed value."""
    key = algebra.atoms, code
    try:
        return _values[key]
    except KeyError:
        return _keep(_values, key, HyperValue(decode_element(algebra, code & (1 << algebra.k) - 1),
                                              decode_element(algebra, code >> algebra.k)))


# --- operations on values: encode, one packed operation, decode ---


def _apply(op: str, h1: HyperValue, h2: HyperValue):
    same_algebra(h1, h2)
    return getattr(packed_ops(h1.algebra.k), op)(encode(h1), encode(h2))


def equivalent(h1: HyperValue, h2: HyperValue) -> bool:
    same_algebra(h1, h2)
    return encode(h1) == encode(h2)


def pinf(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Pointwise greatest lower bound: componentwise meet."""
    return decode(h1.algebra, _apply("pinf", h1, h2))


def psup(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Pointwise least upper bound: componentwise join."""
    return decode(h1.algebra, _apply("psup", h1, h2))


def hneg(h: HyperValue) -> HyperValue:
    """Pointwise complement."""
    return decode(h.algebra, packed_ops(h.algebra.k).neg(encode(h)))


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
    return _apply("leq", h1, h2)


def osup(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """The componentwise join of two standard or two nonstandard values (which
    may collapse to a constant), or a mixed pair's standard operand; not the
    stipulated order's join, which some pairs lack (see the module doc)."""
    return decode(h1.algebra, _apply("osup", h1, h2))


def oinf(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """The dual of `osup`: the componentwise meet, or a mixed pair's nonstandard operand."""
    return decode(h1.algebra, _apply("oinf", h1, h2))


mb_neg = hneg  # the matrix negation is the pointwise complement


def mb_and(h1: HyperValue, h2: HyperValue) -> HyperValue:
    return decode(h1.algebra, _apply("and_", h1, h2))


def mb_or(h1: HyperValue, h2: HyperValue) -> HyperValue:
    return decode(h1.algebra, _apply("or_", h1, h2))


def mb_imp(h1: HyperValue, h2: HyperValue) -> HyperValue:
    """Complement of the order-join of the operands, joined pointwise with h2."""
    return decode(h1.algebra, _apply("imp", h1, h2))


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


class OppositionClassification(Record):
    __slots__ = ("cases", "inf_with_content_neg", "sup_with_content_neg")


def classify_opposition(h: HyperValue) -> OppositionClassification:
    """Sort a nonstandard value into the (possibly overlapping) case set.

    The witnesses pinf(h, content_neg(h)) and psup(h, content_neg(h)) are
    always the standard values of on_true & on_false and on_true | on_false.
    """
    ops, c = packed_ops(h.algebra.k), encode(h)
    if ops.is_standard(c):
        raise StandardInput("opposition cases are only defined for nonstandard values")
    cn = ops.content_neg(c)
    inf, sup = ops.pinf(c, cn), ops.psup(c, cn)
    cases = set()
    if inf == 0:
        cases.add(OppositionCase.DISJOINT)
    if sup == ops.top:
        cases.add(OppositionCase.EXHAUSTIVE)
    if not cases:
        cases.add(OppositionCase.INCOMPARABLE)
    return OppositionClassification(
        cases=frozenset(cases),
        inf_with_content_neg=decode(h.algebra, inf),
        sup_with_content_neg=decode(h.algebra, sup),
    )


class SquareReport(Record):
    """The four opposition relations for h, its content negation and their complements.

    `value` is the act value h and `holds` the criterion content_neg(h) <= hneg(h)
    in the stipulated order; the relations are those of `square_relations`.
    """

    __slots__ = ("value", "content_negated", "holds", "contrary", "contradictory",
                 "subcontrary", "subaltern_left", "subaltern_right", "contrary_inf",
                 "contradictory_inf", "contradictory_sup", "subcontrary_sup")

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


def square_relations(ops: PackedOps) -> dict[str, Callable[[int, int, int, int], bool]]:
    """The square's five relations and its criterion on the corner codes.

    Each takes the packed values of F(p), F(~p), ~F(~p), ~F(p), in that order.
    """
    full, leq = ops.top, ops.leq
    return {
        "contrary": lambda fp, fnp, nfnp, nfp: fp & fnp == 0,
        "contradictory": lambda fp, fnp, nfnp, nfp: (
            fp & nfp == 0 and fp | nfp == full and fnp & nfnp == 0 and fnp | nfnp == full
        ),
        "subcontrary": lambda fp, fnp, nfnp, nfp: nfnp | nfp == full,
        "subaltern_left": lambda fp, fnp, nfnp, nfp: leq(fp, nfnp),
        "subaltern_right": lambda fp, fnp, nfnp, nfp: leq(fnp, nfp),
        "criterion": lambda fp, fnp, nfnp, nfp: leq(fnp, nfp),
    }


def square_report(h: HyperValue) -> SquareReport:
    """Check the square of opposition for a nonstandard value.

    All four relations reduce to the components of h being disjoint, except
    the contradictory pair, which holds by the complement laws regardless.
    """
    ops, algebra, fp = packed_ops(h.algebra.k), h.algebra, encode(h)
    if ops.is_standard(fp):
        raise StandardInput("the square is only defined for nonstandard values")
    fnp = ops.content_neg(fp)
    nfnp, nfp = ops.neg(fnp), ops.neg(fp)
    holds = {name: relation(fp, fnp, nfnp, nfp)
             for name, relation in square_relations(ops).items()}
    return SquareReport(
        value=decode(algebra, fp),
        content_negated=decode(algebra, fnp),
        holds=holds.pop("criterion"),
        **holds,
        contrary_inf=decode(algebra, fp & fnp),
        contradictory_inf=decode(algebra, fp & nfp),
        contradictory_sup=decode(algebra, fp | nfp),
        subcontrary_sup=decode(algebra, nfnp | nfp),
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
