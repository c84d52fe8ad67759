"""The errors of an act reference at every entry point of both matrices.

Acts are inlined before lowering only when there are definitions; with none,
lowering meets the reference itself and must raise what inlining would.
"""

import pytest

import illoc.matrix_m as m
import illoc.matrix_mb as mb
from illoc.boolalg import AlgebraSpec
from illoc.matrix_mb import MBMode, MBValuation
from illoc.opposition import CheckSpace, entails
from illoc.syntax import ActRef, Atom, CyclicAct, Force, Or, UnknownActRef, parse

MODES = tuple(MBMode)
K1 = AlgebraSpec(("a",))


CYCLE = parse("act x = [f](y); act y = [g](x);").definitions


def _m_checks(formula, defs):
    return [
        lambda: m.is_tautology_m(formula, defs),
        lambda: m.eval_m(formula, {"p": 1}, defs),
        lambda: entails(formula, Atom("p"), CheckSpace("m"), defs),
        lambda: entails(Atom("p"), formula, CheckSpace("m"), defs),
    ]


def _mb_checks(formula, defs, mode):
    valuation = MBValuation(K1, mode, atom_values={"p": K1.top()})
    space = CheckSpace("mb", K1, mode)
    return [
        lambda: mb.is_tautology_mb(formula, K1, mode, defs=defs),
        lambda: mb.eval_mb(formula, valuation, defs),
        lambda: mb.find_difference(formula, Atom("p"), K1, mode, defs=defs),
        lambda: mb.find_difference(Atom("p"), formula, K1, mode, defs=defs),
        lambda: entails(formula, Atom("p"), space, defs),
        lambda: entails(Atom("p"), formula, space, defs),
    ]


def _every_check(formula, defs):
    checks = _m_checks(formula, defs)
    for mode in MODES:
        checks += _mb_checks(formula, defs, mode)
    return checks


@pytest.mark.parametrize("defs", [None, {}, {"y": Atom("q")}], ids=["none", "empty", "other"])
@pytest.mark.parametrize("where", ["alone", "in-force", "in-connective", "first-of-two"])
def test_a_reference_with_no_definition_is_an_unknown_act(defs, where):
    x = ActRef("x")
    formula = {"alone": x, "in-force": Force("f", x), "in-connective": Or(Atom("p"), x),
               # the first reference, left to right, is the one reported
               "first-of-two": Or(Force("f", Or(Force("g", Atom("q")), x)), ActRef("z")),
               }[where]
    for check in _every_check(formula, defs):
        with pytest.raises(UnknownActRef) as raised:
            check()
        assert raised.value.args == ("x",)


@pytest.mark.parametrize("formula", [Or(ActRef("x"), Atom("p")), ActRef("x"),
                                     Force("h", ActRef("x"))], ids=["x | p", "x", "[h](x)"])
def test_a_two_act_cycle_is_cyclic_at_the_act_it_returns_to(formula):
    for check in _every_check(formula, CYCLE):
        with pytest.raises(CyclicAct) as raised:
            check()
        assert raised.value.args == ("x",)
        assert str(raised.value) == "act 'x' is cyclic: its definition refers back to it"
