"""The scan order both matrices keep, `MBScan.run` on lowered programs, and
the budget check the callers of a scan make before they build the domains."""

import itertools

import pytest

from illoc.boolalg import AlgebraSpec
from illoc.matrix_m import BIT_CODE, MScan
from illoc.matrix_m import lower as lower_m
from illoc.matrix_mb import MBMode, MBScan, lower
from illoc.search import BudgetExceeded, check_budget
from illoc.syntax import parse_formula

K2 = AlgebraSpec(("a", "b"))  # an atom slot takes the codes 0 to 3


def _mb_scan(atoms):
    """A scan of the conjunction of atoms, one atom slot per name in order."""
    formulas = [parse_formula(" & ".join(atoms))] if atoms else []
    lowered = lower(formulas, MBMode.POINTWISE, K2.k)
    return MBScan(K2, MBMode.POINTWISE, lowered[0].order(), lowered)


def _m_scan(atoms):
    """A scan in m of the conjunction of atoms, one atom slot per name in order."""
    program, roots = lower_m([parse_formula(" & ".join(atoms))])
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


def test_no_slot_is_one_empty_assignment():
    scan = _mb_scan([])
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


def test_a_space_of_exactly_the_budget_is_allowed_and_one_more_is_refused():
    check_budget(16, 16)
    with pytest.raises(BudgetExceeded, match="^17 assignments exceed the budget of 16$"):
        check_budget(17, 16)
