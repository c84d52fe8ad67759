"""Finite powerset Boolean algebras: the value carrier for everything else.

The desk-scale stand-in for a complete Boolean algebra: k named atoms,
elements are atom subsets, operations are set operations. k is capped so
exhaustive scans stay cheap.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .record import Record, setfield

DEFAULT_MAX_ATOMS = 16


class AlgebraMismatch(ValueError):
    """Operands belong to different algebras."""


class AlgebraSpec(Record):
    """Atom names in declaration order; the algebra is their powerset.

    `max_atoms` only bounds the size: it is not compared, hashed or shown.
    """

    __slots__ = ("atoms", "max_atoms")
    _compared = _shown = ("atoms",)

    def __init__(self, atoms: Iterable[str], max_atoms: int = DEFAULT_MAX_ATOMS) -> None:
        atoms = tuple(atoms)
        setfield(self, "atoms", atoms)
        setfield(self, "max_atoms", max_atoms)
        if len(atoms) < 1:
            raise ValueError("an algebra needs at least one atom")
        if len(atoms) > max_atoms:
            raise ValueError(f"{len(atoms)} atoms exceed the configured maximum {max_atoms}")
        seen: set[str] = set()
        for name in atoms:
            if not isinstance(name, str) or not name.isidentifier():
                raise ValueError(f"bad atom name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate atom name: {name!r}")
            seen.add(name)

    @property
    def k(self) -> int:
        return len(self.atoms)

    def element(self, names: Iterable[str] = ()) -> Element:
        return Element(self, frozenset(names))

    def bottom(self) -> Element:
        return self.element()

    def top(self) -> Element:
        return self.element(self.atoms)


class Element(Record):
    """A subset of its algebra's atoms; equal iff the atom sets are equal."""

    __slots__ = ("algebra", "atoms")

    def __init__(self, algebra: AlgebraSpec, atoms: Iterable[str]) -> None:
        atoms = frozenset(atoms)
        setfield(self, "algebra", algebra)
        setfield(self, "atoms", atoms)
        stray = atoms - set(algebra.atoms)
        if stray:
            raise ValueError(f"atoms not declared in the algebra: {sorted(stray)}")

    def __str__(self) -> str:
        ordered = [a for a in self.algebra.atoms if a in self.atoms]
        return "{" + ",".join(ordered) + "}"


def same_algebra(x, y) -> None:
    """Raise AlgebraMismatch unless x and y (elements or values) share an algebra."""
    if x.algebra != y.algebra:
        raise AlgebraMismatch(f"algebra mismatch: {x.algebra.atoms} vs {y.algebra.atoms}")


def meet(x: Element, y: Element) -> Element:
    same_algebra(x, y)
    return Element(x.algebra, x.atoms & y.atoms)


def join(x: Element, y: Element) -> Element:
    same_algebra(x, y)
    return Element(x.algebra, x.atoms | y.atoms)


def complement(x: Element) -> Element:
    return Element(x.algebra, frozenset(x.algebra.atoms) - x.atoms)


def leq(x: Element, y: Element) -> bool:
    same_algebra(x, y)
    return x.atoms <= y.atoms


def element_index(x: Element) -> int:
    """Position of x in the binary-counting enumeration (atom i is bit i)."""
    return sum(1 << i for i, a in enumerate(x.algebra.atoms) if a in x.atoms)


def enumerate_elements(spec: AlgebraSpec) -> Iterator[Element]:
    """All 2^k elements, in binary-counting order over atom positions."""
    for index in range(1 << spec.k):
        yield Element(spec, frozenset(a for i, a in enumerate(spec.atoms) if index >> i & 1))


def element_to_json(x: Element) -> list[str]:
    return [a for a in x.algebra.atoms if a in x.atoms]


def element_from_json(spec: AlgebraSpec, data: list[str]) -> Element:
    if not isinstance(data, list) or not all(isinstance(name, str) for name in data):
        raise ValueError(f"an element is a list of atom names, not {data!r}")
    return spec.element(data)


def algebra_to_json(spec: AlgebraSpec) -> dict:
    return {"atoms": list(spec.atoms)}


def algebra_from_json(data: dict) -> AlgebraSpec:
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise ValueError('an algebra is {"atoms": [names]}')
    return AlgebraSpec(tuple(data["atoms"]))
