"""The scan kernel of matrix mb: `first_hit` over plain per-slot domains, and
the budget check its callers make before they build the domains."""

import itertools

import pytest

from illoc.search import BudgetExceeded, check_budget, first_hit


def test_first_hit_walks_the_first_slot_most_significant_each_domain_in_its_order():
    domains = [("x", "y"), (2, 0, 1), [True, False]]
    seen = []
    assert first_hit(domains, lambda values: seen.append(values)) is None
    assert seen == [(a, b, c) for a in ("x", "y") for b in (2, 0, 1) for c in (True, False)]
    assert seen == list(itertools.product(*domains))


def test_first_hit_stops_at_the_first_payload():
    seen = []

    def predicate(values):
        seen.append(values)
        return sum(values) if sum(values) >= 3 else None

    assert first_hit([range(3), range(3)], predicate) == 3
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("payload", [0, False, "", (), []], ids=repr)
def test_a_falsy_payload_is_a_hit_and_only_none_misses(payload):
    seen = []

    def predicate(values):
        seen.append(values)
        return payload if values == (1, 0) else None

    assert first_hit([(0, 1), (0, 1)], predicate) is payload
    assert seen == [(0, 0), (0, 1), (1, 0)]


def test_a_slot_with_an_empty_domain_leaves_nothing_to_visit():
    def unreachable(values):
        raise AssertionError(f"visited {values} in an empty space")

    assert first_hit([(0, 1), (), (0, 1)], unreachable) is None


def test_no_slot_is_one_empty_assignment():
    assert first_hit([], lambda values: ("hit", values)) == ("hit", ())


def test_a_space_of_exactly_the_budget_is_allowed_and_one_more_is_refused():
    check_budget(16, 16)
    with pytest.raises(BudgetExceeded, match="^17 assignments exceed the budget of 16$"):
        check_budget(17, 16)
