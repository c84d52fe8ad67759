"""Formulas lowered to one flat register program, and the loops that run it.

A matrix lowers the formulas of a scan, or of one evaluation, into one
`Program`: postorder instructions (op, a, b) over a register file r whose
first n registers hold the n slot values; instruction i sets register n + i
to op on r[a] and r[b], and a unary op ignores its second operand. The
program is hash-consed on (op, a, b), never on the subtree, so a subterm that
repeats within or across the formulas is one instruction, evaluated once per
valuation. `Program.link` numbers the registers for one slot order and can
replace each op key by what the linked code runs. There are two loops, one per
matrix. `Scan.visit` runs `mb`, whose values are packed ints, on one valuation
that `search.first_hit` hands it: each instruction calls its op,
`r.append(op(r[a], r[b]))`, and the verdict runs on every valuation.
`matrix_m.MScan.run` is the whole scan of `m`: each instruction indexes a
16-entry table, `r[o] = t[4 * r[a] + r[b]]`, and after the first assignment
runs only when a slot it reads has changed. A check in `m` emits its mask, a
16-entry 0/1 table over its roots' codes, as one more instruction whose op
is the table itself (`link` keeps an op its mapping does not list), and the
loop calls the verdict only where that register is 1.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping, Optional, Sequence

Code = tuple[tuple[Any, int, int], ...]


class Program:
    """While lowering, a register is an instruction's index i >= 0 or a leaf's
    ~j, j being the leaf's position in `leaves` (first seen first)."""

    def __init__(self) -> None:
        self.leaves: dict[Hashable, int] = {}  # slot key -> position
        self._code: dict[tuple, int] = {}  # instruction -> index

    def leaf(self, key: Hashable) -> int:
        return ~self.leaves.setdefault(key, len(self.leaves))

    def emit(self, op: Hashable, a: int, b: int) -> int:
        return self._code.setdefault((op, a, b), len(self._code))

    def link(self, order: Iterable[Hashable],
             ops: Optional[Mapping] = None) -> tuple[Code, Callable[[int], int]]:
        """The instructions with slot key order[i] in register i, and the map
        from a lowering's registers to the linked ones; with ops, each op
        that ops lists is replaced by ops[op] and any other is kept."""
        at = {key: i for i, key in enumerate(order)}
        leaf, n = [at[key] for key in self.leaves], len(at)

        def register(x: int) -> int:
            return x + n if x >= 0 else leaf[~x]

        if ops is None:
            return tuple((op, register(a), register(b)) for op, a, b in self._code), register
        return tuple((ops.get(op, op), register(a), register(b)) for op, a, b in self._code), register


class Scan:
    """A program linked with slot key keys[i] in register i, and the valuation
    it is visiting.

    `register` maps a lowering's register to the linked one, and `roots` are
    the linked registers of the formulas' roots. A verdict reads `values` and
    `registers` of the valuation visited last.
    """

    def __init__(self, program: Program, roots: Iterable[int], keys: Iterable[Hashable]):
        self.keys = tuple(keys)
        self.code, self.register = program.link(self.keys)
        self.roots = [self.register(x) for x in roots]
        self.values: tuple = ()
        self.registers: list = []

    def visit(self, values: Sequence) -> list:
        """The roots' codes on one valuation's slot values, one per slot: each
        instruction calls its op."""
        self.values = values
        self.registers = r = [*values]
        for op, a, b in self.code:
            r.append(op(r[a], r[b]))
        return [r[x] for x in self.roots]
