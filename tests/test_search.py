"""The scan order both matrices keep, `MBScan.run` on lowered programs, the
schedule of valuations both scans run (`program.schedule`), and the budget
check the callers of a scan make before they build the domains."""

import itertools

import pytest

from illoc.boolalg import AlgebraSpec
from illoc.matrix_m import BIT_CODE, MScan, is_tautology_m
from illoc.matrix_m import lower as lower_m
from illoc.matrix_mb import MBMode, MBScan, is_tautology_mb, lower
from illoc.program import by_level, schedule
from illoc.search import BudgetExceeded, check_budget
from illoc.syntax import parse_formula

K1 = AlgebraSpec(("a",))
K2 = AlgebraSpec(("a", "b"))  # an atom slot takes the codes 0 to 3


def _mb_scan(atoms, text=None):
    """A scan of the conjunction of atoms (or of text over them), one atom
    slot per name in order."""
    text = text or " & ".join(atoms)
    formulas = [parse_formula(text)] if text else []
    program, roots = lower(formulas, MBMode.POINTWISE, K2.k)
    return MBScan(K2, MBMode.POINTWISE, program.order(), program, roots)


def _m_scan(atoms, text=None):
    """A scan in m of the conjunction of atoms (or of text over them), one
    atom slot per name in order."""
    text = text or " & ".join(atoms)
    program, roots = lower_m([parse_formula(text)] if text else [])
    return MScan(program, roots, atoms)


SCANS = {"mb": _mb_scan, "m": _m_scan}


def _slots(scan):
    return tuple(scan.registers[:len(scan.keys)])


def test_run_walks_the_first_slot_most_significant_each_domain_in_its_order():
    scan = _mb_scan(["p", "q", "r"])
    domains = [(1, 0), (2, 0, 3), (3, 1)]
    seen = []
    assert scan.run(domains, lambda scan, codes: seen.append(_slots(scan))) is None
    assert seen == [(a, b, c) for a in (1, 0) for b in (2, 0, 3) for c in (3, 1)]
    assert seen == list(itertools.product(*domains))


def test_run_stops_at_the_first_payload():
    seen = []

    def verdict(scan, codes):
        values = _slots(scan)
        seen.append(values)
        return sum(values) if sum(values) >= 3 else None

    assert _mb_scan(["p", "q"]).run([range(3), range(3)], verdict) == 3
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("payload", [0, False, "", (), []], ids=repr)
def test_a_falsy_payload_is_a_hit_and_only_none_misses(payload):
    seen = []

    def verdict(scan, codes):
        seen.append(_slots(scan))
        return payload if seen[-1] == (1, 0) else None

    assert _mb_scan(["p", "q"]).run([(0, 1), (0, 1)], verdict) is payload
    assert seen == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("matrix", SCANS)
@pytest.mark.parametrize("empty", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_slot_with_an_empty_domain_leaves_nothing_to_visit(matrix, empty):
    def unreachable(scan, codes):
        raise AssertionError(f"visited {_slots(scan)} in an empty space")

    domains = [(0, 1), (0, 1), (0, 1)]
    domains[empty] = ()
    assert SCANS[matrix](["p", "q", "r"]).run(domains, unreachable) is None


@pytest.mark.parametrize("matrix", SCANS)
def test_a_scan_where_no_slot_varies_visits_its_one_valuation(matrix):
    seen = []

    def miss(scan, codes):
        seen.append(_slots(scan))

    assert SCANS[matrix](["p", "q"]).run([(1,), (0,)], miss) is None
    assert seen == [(1, 0)]


@pytest.mark.parametrize("matrix", SCANS)
def test_no_slot_is_one_empty_assignment(matrix):
    scan = SCANS[matrix]([])
    assert scan.keys == () and scan.code == []
    assert scan.run([], lambda scan, codes: ("hit", codes)) == ("hit", [])


def test_both_matrices_scan_three_two_value_slots_in_the_same_order():
    domains = [BIT_CODE] * 3  # the codes of 0 and 1 in m; atom codes at K2 in mb
    program, roots = lower_m([parse_formula("p & q & r")])
    m_scan = MScan(program, roots, ["p", "q", "r"])
    m_seen, mb_seen = [], []
    assert m_scan.run(domains, lambda scan, codes: m_seen.append(_slots(scan))) is None
    assert _mb_scan(["p", "q", "r"]).run(
        domains, lambda scan, codes: mb_seen.append(_slots(scan))) is None
    assert m_seen == mb_seen == list(itertools.product(*domains))


def _sized_scan(matrix, atoms, size):
    """A scan of the conjunction of atoms, or-ed with the first atom until
    its linked program has exactly size instructions."""
    text = " & ".join(atoms)
    scan = SCANS[matrix](atoms)
    while len(scan.code) < size:
        text = f"({text}) | {atoms[0]}"
        scan = SCANS[matrix](atoms, text)
    assert len(scan.code) == size
    return scan


def _first_block(scan, domains):
    """The register or slice of the inner block that `schedule` runs for a
    scan over domains: the block of its second yield, after the first sweep
    of the last varying slot."""
    _, (block, _) = itertools.islice(schedule([], scan.code, domains), 2)
    return block


def _visits(scan, domains, stop=None):
    """The slot values of every valuation the scan's verdict gets, whose
    codes each equal a one-valuation run's, which runs every instruction;
    and what the scan returns, with a verdict that hits at index stop only."""
    seen = []

    def visit(scan, codes):
        seen.append((_slots(scan), codes))
        return len(seen) - 1 if len(seen) - 1 == stop else None

    result = scan.run(domains, visit)
    for values, codes in seen:
        assert scan.run([(v,) for v in values], lambda _, fresh: fresh) == codes, values
    return [values for values, _ in seen], result


# Domains in both matrices: the codes 0 to 3 are values of an atom slot in m
# (the four truth values) and at K2 in mb. An mb program over n atoms has at
# least 2n - 1 instructions, so every size is at least that.
BOUND_CASES = {
    # size: the program's instructions; block: what `schedule` makes the inner block
    "block-covers-every-slot": (8, [(0, 1), (2, 3), (1, 0)], slice(0, 3)),
    "one-value-slot-inside-the-block": (7, [(0, 1), (0, 1), (3,), (1, 0)], slice(1, 4)),
    "joint-domain-at-the-bound": (9, [(0, 1), (0, 1, 2), (1, 0, 3), (3, 2, 1)], slice(2, 4)),
    "one-valuation-over-the-bound": (8, [(0, 1), (0, 1, 2), (1, 0, 3), (3, 2, 1)], 3),
    "last-slot-over-the-bound": (3, [(0, 1), (0, 1, 2, 3)], 1),
}


@pytest.mark.parametrize("matrix", SCANS)
@pytest.mark.parametrize("case", BOUND_CASES)
def test_the_inner_block_grows_while_its_domain_fits_the_program(matrix, case):
    size, domains, block = BOUND_CASES[case]
    atoms = [f"x{i}" for i in range(len(domains))]
    scan = _sized_scan(matrix, atoms, size)
    assert _first_block(scan, domains) == block
    seen, result = _visits(scan, domains)
    assert result is None
    assert seen == list(itertools.product(*domains))


@pytest.mark.parametrize("matrix", SCANS)
@pytest.mark.parametrize("stop", [1, 3, 4, 11, 12, 13, 23], ids=lambda stop: f"row-{stop}")
def test_a_witness_stops_the_schedule_at_its_row(matrix, stop):
    """Slot 0 is outer and slots 1 and 2 the block, which has 12 valuations:
    rows 0-3 are the first sweep of the last slot (the whole program runs
    on them), rows 4-11 the rest of the first block, row 12 opens the
    second block and rows 13-23 are in it."""
    size, domains = 12, [(0, 1), (0, 1, 2), (3, 2, 1, 0)]
    scan = _sized_scan(matrix, ["p", "q", "r"], size)
    assert _first_block(scan, domains) == slice(1, 3)
    seen, result = _visits(scan, domains, stop)
    assert result == stop
    assert seen == list(itertools.product(*domains))[:stop + 1]


@pytest.mark.parametrize("matrix", SCANS)
def test_a_carry_crosses_the_block_and_every_outer_slot(matrix):
    domains = [(0, 1), (1, 0), (2, 3), (0, 1), (3, 1)]
    scan = _sized_scan(matrix, [f"x{i}" for i in range(5)], 9)
    assert _first_block(scan, domains) == slice(2, 5)
    seen, _ = _visits(scan, domains)
    assert seen == list(itertools.product(*domains))


LEVEL_CASES = {
    # check: (its scan, whether it ends in the first sweep of the last varying slot)
    "m-refuted-at-row-1": (lambda: is_tautology_m(parse_formula("q -> p")), True),
    "m-refuted-at-row-2": (lambda: is_tautology_m(parse_formula("p | q -> q")), False),
    "m-tautology-of-one-sweep": (lambda: is_tautology_m(parse_formula("p -> p")), True),
    "m-tautology-of-two-sweeps": (
        lambda: is_tautology_m(parse_formula("p & q -> p | r")), False),
    "mb-refuted-at-row-1": (lambda: is_tautology_mb(
        parse_formula("[f](q) -> [g](p)"), K2, MBMode.POINTWISE), True),
    "mb-refuted-at-row-2": (lambda: is_tautology_mb(
        parse_formula("p -> q"), K1, MBMode.POINTWISE), False),
    "mb-tautology-of-two-sweeps": (lambda: is_tautology_mb(
        parse_formula("[f](p) -> p"), K1, MBMode.POINTWISE), False),
}


@pytest.mark.parametrize("case", LEVEL_CASES)
def test_the_levels_are_grouped_once_and_only_when_the_first_sweep_misses(monkeypatch, case):
    check, in_first_sweep = LEVEL_CASES[case]
    calls = []

    def counted(*args):
        calls.append(args)
        return by_level(*args)

    monkeypatch.setattr("illoc.program.by_level", counted)
    check()
    assert len(calls) == (0 if in_first_sweep else 1)


def test_a_space_of_exactly_the_budget_is_allowed_and_one_more_is_refused():
    check_budget(16, 16)
    with pytest.raises(BudgetExceeded, match="^17 assignments exceed the budget of 16$"):
        check_budget(17, 16)
