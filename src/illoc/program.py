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
(`search`), over the valuations that `schedule` yields; the level scan is
described there. The scans differ in what an instruction does.
`matrix_mb.MBScan.run` calls its op on packed ints, `r[o] = op(r[a], r[b])`.
`matrix_m.MScan.run` looks up a row of a fused 4 x 4 table,
`r[o] = t[r[a]][r[b]]`; there a binary op names its connective and the ~/F
maps of its operands, fused into one table, so a unary chain emits no
instruction of its own except at a root. A check in `m` emits its mask, a
4 x 4 0/1 table over its roots' codes, as one more instruction whose op is
the table itself (`link` keeps an op its mapping does not list), and the
loop calls the verdict only where that register is 1; `mb` calls its
verdict on every valuation.
"""

from __future__ import annotations

from itertools import product, repeat
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

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
             ops: Mapping = MappingProxyType({})) -> tuple[Code, list[int]]:
        """The instructions (op, out, a, b) with slot key order[i] in register
        i and instruction i in register len(order) + i, order holding every
        leaf once, and the register table: entry x is the linked register of
        a lowering's register x, an instruction's x >= 0 or a leaf's ~j,
        which indexes the table from its end. Each op that ops lists is
        replaced by ops[op] and any other is kept."""
        n, leaves = len(order), self.leaves
        table = [*range(n, n + len(self._code)), *[0] * n]
        for i, key in enumerate(order):
            table[~leaves[key]] = i
        return [(ops.get(op, op), o, table[a], table[b])
                for o, (op, a, b) in enumerate(self._code, n)], table


def by_level(code: Code, varying: Sequence[int], n: int) -> list[tuple]:
    """For each level k, the instructions of a program linked over n slots
    whose level is k or later, in level order and in postorder within a
    level, so every operand they read runs before them or did not change.
    An instruction's level is k when varying[k] is the last varying slot it
    reads; one that reads none has no level and never runs again. Each
    level's tuple is built here once per scan, not sliced again per sweep;
    there is one per varying slot, and each slot has two values or more,
    so the budget bounds their number by its log2."""
    level = [-1] * n
    for k, j in enumerate(varying):
        level[j] = k
    groups: list = [[] for _ in varying]
    for instruction in code:
        _, _, a, b = instruction
        x, y = level[a], level[b]
        if x < y:  # the later of the operands' levels, without a call
            x = y
        level.append(x)
        if x >= 0:
            groups[x].append(instruction)
    suffix: tuple = ()
    for k in range(len(groups) - 1, -1, -1):
        suffix = groups[k] = (*groups[k], *suffix)
    return groups


def schedule(r: list, code: Code,
             domains: Sequence[Sequence[int]]) -> Iterator[tuple[Any, Iterable]]:
    """Every valuation of a scan over domains, one per slot, in mixed-radix
    order (the first slot most significant, each domain in its order), as
    one (block, steps) per run of valuations: each step is (values, code),
    `r[block] = values` writes its slots into the registers r, and code is
    the instructions to run then. r, with a register for every slot and
    instruction, gets each domain's first value in its slot registers here;
    nothing is yielded when a domain is empty, and one step of the whole
    program, with the empty slice as its block, when no slot varies.

    The level scan: the first sweep of the last varying slot runs the whole
    program, lazily, so a check decided there builds nothing more. After it
    an instruction runs only when its level, the last varying slot it reads
    (`by_level`), is at or after the slot that changed, so every register
    it reads is fresh; a one-value slot is a constant and gives no level.
    The rest of the space runs as an inner block of the last varying slots:
    at least one, and more while their joint domain has at most len(code)
    valuations, so the steps' memory stays linear in the program (or in the
    last slot's domain, when that alone is larger). `block` is the register
    of a one-slot block, and otherwise the slice of the block's registers,
    one-value slots between them included. The block's steps are built
    once, each with `by_level`'s tuple for the first block slot that
    changed; the first instance yields those after the first sweep. Between
    two instances the slots before the block advance as an odometer in r,
    and steps[0], the block's first valuation, takes the tuple of the outer
    slot that changed.
    """
    if not all(domains):  # a slot with an empty domain: there is no valuation
        return
    r[:len(domains)] = [d[0] for d in domains]
    last = len(domains) - 1  # the last varying slot
    while last >= 0 and len(domains[last]) == 1:
        last -= 1
    if last < 0:
        yield slice(0, 0), [((), code)]
        return
    yield last, zip(domains[last], repeat(code))
    varying = [j for j, d in enumerate(domains) if len(d) > 1]
    if len(varying) == 1:  # the first sweep was the whole space
        return
    suffixes = by_level(code, varying, len(domains))
    b = len(varying) - 1
    size = len(domains[varying[b]])
    while b and size * len(domains[varying[b - 1]]) <= len(code):
        b -= 1
        size *= len(domains[varying[b]])
    if b == len(varying) - 1:  # one slot: an index store costs a fifth of a slice store
        block: int | slice = varying[b]
        values: Iterable = domains[block]
    else:
        block = slice(varying[b], varying[-1] + 1)
        values = product(*domains[block])
    codes = [suffixes[-1]] * size
    stride = 1
    for k in range(len(varying) - 2, b - 1, -1):
        stride *= len(domains[varying[k + 1]])  # a valuation at a multiple of stride moved level k
        codes[::stride] = [suffixes[k]] * (size // stride)
    steps = list(zip(values, codes))
    first = steps[0][0]
    outer = varying[:b]
    digits = [0] * b
    yield block, steps[len(domains[last]):]  # after the first sweep
    while True:
        # the last outer slot not at its end takes its next value, the later ones their first
        k = b - 1
        while k >= 0 and digits[k] == len(domains[outer[k]]) - 1:
            digits[k] = 0
            r[outer[k]] = domains[outer[k]][0]
            k -= 1
        if k < 0:
            return
        digits[k] += 1
        r[outer[k]] = domains[outer[k]][digits[k]]
        steps[0] = first, suffixes[k]
        yield block, steps
