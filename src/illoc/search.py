"""The evaluation budget of a scan, and the order that every scan keeps.

A scan of either matrix visits assignments in mixed-radix order over one
domain per slot, the first slot most significant and each domain in its
listed order, and returns the first payload, a verdict's value other than
None, so the first hit is well defined and the same for every caller; a
slot with an empty domain leaves nothing to visit. Each matrix has one such
loop, `matrix_mb.MBScan.run` and `matrix_m.MScan.run`, each `run(domains,
verdict)`, and both take their valuations from `program.schedule`; where
the scan has a mask the verdict runs only on the assignments the mask
admits, still in this order. Their callers size the space and check
`check_budget` before the scan starts.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The assignment space is larger than the configured evaluation budget."""


def check_budget(size: int, budget: int) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} assignments exceed the budget of {budget}")
