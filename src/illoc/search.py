"""Deterministic first-witness scans over finite assignment product spaces.

Assignments are visited in mixed-radix order, first slot most significant and
each domain in its listed order, so the first hit is well defined and the
same for every caller. `first_hit` is the scan of matrix `mb`; matrix `m`
scans in the same order in its own loop, `matrix_m.MScan.run`, which runs an
instruction only when a slot it reads has changed. The callers of both size
the space and check `check_budget` before the scan starts.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

from .record import Record

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The assignment space is larger than the configured evaluation budget."""


class Slot(Record):
    __slots__ = ("key", "domain")

    def __init__(self, key: Any, domain: tuple) -> None:
        _slot_key(self, key)
        _slot_domain(self, domain)


_slot_key, _slot_domain = Slot._setters  # bound once, as the formula nodes' in `syntax`


def check_budget(size: int, budget: int) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} assignments exceed the budget of {budget}")


def first_hit(slots: Sequence[Slot], predicate: Callable[[tuple], Any]) -> Any:
    """The first payload, in scan order, for which predicate hits, or None.

    The predicate gets the tuple of slot values, in slot order, and returns
    None for a miss and any other value, the payload, for a hit. The caller
    sizes the space and checks its budget before it builds the slots.
    """
    for values in itertools.product(*(slot.domain for slot in slots)):
        payload = predicate(values)
        if payload is not None:
            return payload
    return None
