"""Deterministic first-witness scans over finite assignment product spaces.

Assignments are visited in mixed-radix order, first slot most significant and
each domain in its listed order, so the first hit is well defined and the
same for every caller. `first_hit` is the scan of matrix `mb`, over one plain
sequence of values per slot; matrix `m` scans in the same order in its own
loop, `matrix_m.MScan.run`, which runs an instruction only when a slot it
reads has changed. The callers of both size the space and check
`check_budget` before the scan starts.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The assignment space is larger than the configured evaluation budget."""


def check_budget(size: int, budget: int) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} assignments exceed the budget of {budget}")


def first_hit(domains: Sequence[Sequence], predicate: Callable[[tuple], Any]) -> Any:
    """The first payload, in scan order, for which predicate hits, or None.

    domains holds each slot's values, in slot order. The predicate gets the
    tuple of slot values and returns None for a miss and any other value,
    the payload, for a hit. The caller sizes the space and checks its budget
    before it builds the domains.
    """
    for values in itertools.product(*domains):
        payload = predicate(values)
        if payload is not None:
            return payload
    return None
