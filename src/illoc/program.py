"""Formulas lowered to one flat register program.

A matrix lowers the formulas of a scan, or of one evaluation, into one
`Program`: postorder instructions (op, a, b) over a register file r whose
first n registers hold the n slot values; instruction i sets register n + i
to op on r[a] and r[b], and a unary op ignores its second operand. The
program is hash-consed on (op, a, b), never on the subtree, so a subterm that
repeats within or across the formulas is one instruction, evaluated once per
valuation. `Program.link` numbers the registers for one slot order through
one register table, a list that an instruction's register indexes from its
start and a leaf's ~j from its end, emits each instruction as (op, out, a,
b), and can replace each op key by what the linked code runs.

Each matrix runs its linked program in its own scan, with one contract
(`search`) and one algorithm. The first valuation runs every instruction
(in `mb` the first sweep of the last varying slot does). After that an
instruction runs only when its level, the last varying slot it reads
(`by_level`, the one grouping both scans use), is at or after the slot that
changed, and the outer slots advance as an odometer (`advance`, the one
step both scans take). The scans differ in what an instruction does.
`matrix_mb.MBScan.run` calls its op on packed ints, `r[o] = op(r[a], r[b])`.
`matrix_m.MScan.run` indexes a 16-entry table, `r[o] = t[4 * r[a] + r[b]]`;
there a binary op names its connective and the ~/F maps of its operands,
fused into one table, so a unary chain emits no instruction of its own
except at a root. A check in `m` emits its
mask, a 16-entry 0/1 table over its roots' codes, as one more instruction
whose op is the table itself (`link` keeps an op its mapping does not list),
and the loop calls the verdict only where that register is 1; `mb` calls
its verdict on every valuation.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Optional, Sequence

Code = list[tuple[Any, int, int, int]]  # (op, out, a, b): register out is op on a and b


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
        """The instructions (op, out, a, b) with slot key order[i] in register
        i and instruction i in register len(order) + i, order holding every
        leaf once, and the register table: entry x is the linked register of
        a lowering's register x, an instruction's x >= 0 or a leaf's ~j,
        which indexes the table from its end. With ops, each op that ops
        lists is replaced by ops[op] and any other is kept."""
        n, leaves = len(order), self.leaves
        table = [*range(n, n + len(self._code)), *[0] * n]
        for i, key in enumerate(order):
            table[~leaves[key]] = i
        if ops is None:
            return [(op, o, table[a], table[b])
                    for o, (op, a, b) in enumerate(self._code, n)], table
        return [(ops.get(op, op), o, table[a], table[b])
                for o, (op, a, b) in enumerate(self._code, n)], table


def by_level(code: Code, varying: Sequence[int], n: int) -> tuple[tuple, list[int]]:
    """The instructions of a program linked over n slots that read a varying
    slot, by level and in postorder within one, and where each level starts.
    An instruction's level is k when varying[k] is the last varying slot it
    reads. One tuple, sliced per run of levels, keeps the memory linear in
    the program."""
    level = [-1] * n
    for k, j in enumerate(varying):
        level[j] = k
    groups: list[list] = [[] for _ in varying]
    for instruction in code:
        _, _, a, b = instruction
        x, y = level[a], level[b]
        if x < y:  # the later of the operands' levels, without a call
            x = y
        level.append(x)
        if x >= 0:
            groups[x].append(instruction)
    flat: list = []
    starts = []
    for group in groups:
        starts.append(len(flat))
        flat += group
    return tuple(flat), starts


def advance(r: list, domains: Sequence[Sequence[int]], outer: Sequence[int],
            digits: list[int], ends: Sequence[int]) -> int:
    """Step the odometer over the outer slots: outer[k] holds the value
    domains[outer[k]][digits[k]] in register outer[k], and ends[k] is its
    last index. The last outer slot not at its end takes its next value,
    the ones after it their first; returns its k, -1 when every slot was at
    its end and the space is done."""
    k = len(outer) - 1
    while k >= 0 and digits[k] == ends[k]:
        digits[k] = 0
        r[outer[k]] = domains[outer[k]][0]
        k -= 1
    if k >= 0:
        digits[k] += 1
        r[outer[k]] = domains[outer[k]][digits[k]]
    return k
