"""Formulas lowered to one flat register program.

A matrix lowers the formulas of a scan, or of one evaluation, into one
`Program`: postorder instructions (op, a, b) over a register file r whose
first n registers hold the n slot values; instruction i sets register n + i
to op on r[a] and r[b], and a unary op ignores its second operand. The
program is hash-consed on (op, a, b), never on the subtree, so a subterm that
repeats within or across the formulas is one instruction, evaluated once per
valuation. `Program.link` numbers the registers for one slot order through
one register table, a list that an instruction's register indexes from its
start and a leaf's ~j from its end, and can replace each op key by what the
linked code runs. Each matrix runs its linked program in its own scan, one
loop with one contract (`search`): `matrix_mb.MBScan.run` runs the whole
program on every valuation, each instruction calling its op on packed ints,
`r.append(op(r[a], r[b]))`, and then the verdict. `matrix_m.MScan.run`
indexes a 16-entry table per instruction, `r[o] = t[4 * r[a] + r[b]]`, and
after the first assignment runs an instruction only when a slot it reads has
changed; there a binary op names its connective and the ~/F maps of its
operands, fused into one table, so a unary chain emits no instruction of its
own except at a root. A check in `m` emits its mask, a 16-entry 0/1 table
over its roots' codes, as one more instruction whose op is the table itself
(`link` keeps an op its mapping does not list), and the loop calls the
verdict only where that register is 1.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Optional, Sequence

Code = list[tuple[Any, int, int]]


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

    def link(self, order: Sequence[Hashable],
             ops: Optional[Mapping] = None) -> tuple[Code, list[int]]:
        """The instructions with slot key order[i] in register i, order
        holding every leaf once, and the register table: entry x is the
        linked register of a lowering's register x, an instruction's x >= 0
        or a leaf's ~j, which indexes the table from its end. With ops, each
        op that ops lists is replaced by ops[op] and any other is kept."""
        n, leaves = len(order), self.leaves
        table = [*range(n, n + len(self._code)), *[0] * n]
        for i, key in enumerate(order):
            table[~leaves[key]] = i
        if ops is None:
            return [(op, table[a], table[b]) for op, a, b in self._code], table
        return [(ops.get(op, op), table[a], table[b]) for op, a, b in self._code], table
