import ast
import gc
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illoc.matrix_mb
from conftest import random_force_free
from illoc.boolalg import AlgebraSpec, complement, enumerate_elements, join, meet
from illoc.hyper import (
    HyperValue,
    content_neg,
    encode,
    enumerate_nonstandard,
    equivalent,
    hleq,
    hneg,
    hyper,
    is_standard,
    mb_and,
    mb_imp,
    mb_neg,
    mb_or,
    oinf,
    osup,
    packed_ops,
    pinf,
    psup,
    standard,
)
from illoc.matrix_mb import (
    MBMode,
    MBScan,
    MBValuation,
    MissingAssignment,
    NotCyclic,
    StandardAssignment,
    default_signatures,
    eval_mb,
    find_difference,
    find_idempotence_counterexample,
    find_neg_swap_counterexample,
    is_tautology_mb,
    lower,
    scan_mb,
    slot_keys,
    unfold_cyclic,
    valuation_from_json,
    valuation_to_json,
)
from illoc.matrix_m import eval_m, is_tautology_m
from illoc.opposition import CheckSpace, _square_formulas, entails, square_for_force
from illoc.search import BudgetExceeded
from illoc.syntax import (
    ActRef, And, Atom, Force, Implies, Not, Or, detect_cycles, format_formula, inline_acts,
    parse, parse_formula,
)
import m_oracle
import mb_oracle
from mb_oracle import (
    oracle_eval,
    oracle_slots,
    oracle_status,
    t_content_neg,
    t_inf,
    t_leq,
    t_mb_and,
    t_mb_imp,
    t_mb_neg,
    t_mb_or,
    t_neg,
    t_oinf,
    t_osup,
    t_sup,
    term_table,
)

K1 = AlgebraSpec(("a",))
K2 = AlgebraSpec(("a", "b"))
K3 = AlgebraSpec(("a", "b", "c"))
K4 = AlgebraSpec(("a", "b", "c", "d"))
MODES = (MBMode.FREE, MBMode.POINTWISE, MBMode.CONNECTIVE)


def el(spec, *names):
    return spec.element(names)


def _oracle_index(formula, atoms, mode, valuation):
    """Mixed-radix index of a package valuation in the oracle's scan order."""

    def table(h):
        return term_table(atoms, frozenset(h.on_true.atoms), frozenset(h.on_false.atoms))

    index = 0
    for key, domain in oracle_slots(formula, atoms, mode):
        if key[0] == "atom":
            value = frozenset(valuation.atom_values[key[1]].atoms)
        elif key[0] == "act":
            value = table(valuation.act_values[format_formula(key[1])])
        elif key[0] == "gen":
            value = table(valuation.generators[(key[1], key[2])])
        else:
            value = table(valuation.signatures[key[1]])
        index = index * len(domain) + domain.index(value)
    return index


def _schema_formulas():
    p, q = Atom("p"), Atom("q")
    F = lambda content: Force("f", content)
    return {
        "force-detachment": Implies(F(p), p),
        "neg-force-detachment": Implies(Not(F(p)), Not(p)),
        "and-split": Implies(F(And(p, q)), And(F(p), F(q))),
        "or-merge": Implies(Or(F(p), F(q)), F(Or(p, q))),
        "imp-distribution": Implies(F(Implies(p, q)), Implies(F(p), F(q))),
    }


# Frozen from the table-based oracle (tests/mb_oracle.py), run before the
# implementation below existed; "imp-distribution" is the only entry whose
# verdict changes with the algebra size.
EXPECTED_STATUS = {
    ("force-detachment", "free"): "tautology",
    ("force-detachment", "pointwise"): "tautology",
    ("force-detachment", "connective"): "tautology",
    ("neg-force-detachment", "free"): "tautology",
    ("neg-force-detachment", "pointwise"): "tautology",
    ("neg-force-detachment", "connective"): "tautology",
    ("and-split", "free"): "refuted",
    ("and-split", "pointwise"): "tautology",
    ("and-split", "connective"): "tautology",
    ("or-merge", "free"): "refuted",
    ("or-merge", "pointwise"): "tautology",
    ("or-merge", "connective"): "tautology",
    ("imp-distribution", "free"): "refuted",
    ("imp-distribution", "connective"): "tautology",
}
EXPECTED_STATUS_BY_K = {
    ("imp-distribution", "pointwise", 1): "tautology",
    ("imp-distribution", "pointwise", 2): "refuted",
}


class TestConnectives:
    def test_standard_implication_is_material(self):
        assert mb_imp(standard(el(K2, "a")), standard(el(K2, "b"))) == standard(el(K2, "b"))

    def test_nonstandard_antecedent_standard_consequent_designates(self):
        assert mb_imp(hyper(el(K2, "a"), el(K2, "b")), standard(K2.bottom())) == standard(K2.top())

    def test_nonstandard_disjunction_dualizes(self):
        assert mb_or(hyper(el(K2, "a"), K2.bottom()),
                     hyper(el(K2, "b"), K2.bottom())) == standard(K2.bottom())

    def test_nonstandard_conjunction_dualizes(self):
        assert mb_and(hyper(el(K2, "a"), K2.bottom()),
                      hyper(el(K2, "b"), K2.bottom())) == hyper(K2.top(), K2.bottom())

    def test_agree_with_base_algebra_on_standards(self):
        for c1, c2 in itertools.product(enumerate_elements(K2), repeat=2):
            assert mb_and(standard(c1), standard(c2)) == standard(meet(c1, c2))
            assert mb_or(standard(c1), standard(c2)) == standard(join(c1, c2))
            assert mb_imp(standard(c1), standard(c2)) == standard(
                join(complement(c1), c2)
            )
        for c in enumerate_elements(K2):
            assert mb_neg(standard(c)) == standard(complement(c))

    def test_implication_reflexive_everywhere(self):
        from illoc.hyper import enumerate_hypervalues

        for h in enumerate_hypervalues(K2):
            assert mb_imp(h, h) == standard(K2.top())


class TestValuation:
    def test_standard_assignments_rejected(self):
        with pytest.raises(StandardAssignment):
            MBValuation(K2, MBMode.FREE, act_values={"[f](p)": standard(el(K2, "a"))})
        with pytest.raises(StandardAssignment):
            MBValuation(
                K2, MBMode.POINTWISE,
                generators={("f", "p"): hyper(el(K2, "a"), el(K2, "a"))},
            )

    def test_default_maps_are_fresh_per_instance(self):
        first, second = MBValuation(K2), MBValuation(K2)
        for name in ("atom_values", "act_values", "generators", "signatures"):
            assert getattr(first, name) == {}
            assert getattr(first, name) is not getattr(second, name)
        assert first.mode is MBMode.POINTWISE

    def test_maps_are_copied_from_the_caller(self):
        def maps():
            return ({"p": el(K2, "a")}, {"[f](p)": hyper(el(K2, "a"), K2.bottom())},
                    {("f", "p"): hyper(K2.top(), el(K2, "b"))},
                    {"f": hyper(el(K2, "b"), K2.bottom())})

        given_maps = maps()
        v = MBValuation(K2, MBMode.POINTWISE, *given_maps)
        for given in given_maps:
            given.clear()
        assert v == MBValuation(K2, MBMode.POINTWISE, *maps())

    def test_values_in_an_equal_algebra_built_apart_are_accepted(self):
        twin = AlgebraSpec(("a", "b"))
        assert twin == K2 and twin is not K2
        v = MBValuation(K2, MBMode.POINTWISE, atom_values={"p": el(twin, "a")},
                        generators={("f", "p"): hyper(el(twin, "a"), twin.bottom())})
        assert v == MBValuation(K2, MBMode.POINTWISE, atom_values={"p": el(K2, "a")},
                                generators={("f", "p"): hyper(el(K2, "a"), K2.bottom())})

    def test_exceptional_assignments_normalize(self):
        patched = hyper(el(K2, "a"), el(K2, "b"), {K2.bottom(): K2.top()})
        v = MBValuation(K2, MBMode.FREE, act_values={"[f](p)": patched})
        assert v.act_values["[f](p)"] == hyper(el(K2, "a"), el(K2, "b"))

    def test_json_round_trip(self):
        v = MBValuation(
            K2,
            MBMode.POINTWISE,
            atom_values={"p": el(K2, "a")},
            generators={("f", "p"): hyper(el(K2, "a"), K2.top())},
            signatures={"f": hyper(el(K2, "b"), K2.bottom())},
        )
        assert valuation_from_json(valuation_to_json(v)) == v

    def test_json_requires_algebra(self):
        with pytest.raises(ValueError):
            valuation_from_json({"mode": "free"})


class TestEval:
    def test_detachment_instance(self):
        v = MBValuation(
            K2, MBMode.FREE,
            atom_values={"p": el(K2, "a")},
            act_values={"[f](p)": hyper(el(K2, "b"), K2.top())},
        )
        out = eval_mb(parse_formula("[f](p) -> p"), v)
        assert out.value == standard(K2.top())
        assert out.admissible

    def test_pointwise_negated_content_swaps(self):
        v = MBValuation(
            K2, MBMode.POINTWISE, generators={("f", "p"): hyper(el(K2, "a"), K2.top())}
        )
        out = eval_mb(parse_formula("[f](~p)"), v)
        assert out.value == hyper(K2.top(), el(K2, "a"))

    def test_nested_force_uses_signature_implication(self):
        v = MBValuation(
            K2, MBMode.POINTWISE,
            generators={("b", "p"): hyper(el(K2, "b"), el(K2, "a"))},
            signatures={"a": hyper(el(K2, "a"), el(K2, "b"))},
        )
        out = eval_mb(parse_formula("[a]([b](p))"), v)
        assert out.value == mb_imp(
            hyper(el(K2, "a"), el(K2, "b")), hyper(el(K2, "b"), el(K2, "a"))
        )
        assert set(out.subvalues) == {"[a]([b](p))", "[b](p)"}

    def test_force_free_formulas_embed_classical_semantics(self):
        rng = random.Random(11)
        elements = list(enumerate_elements(K2))
        for _ in range(60):
            f = random_force_free(rng, depth=3)
            for pv, qv in itertools.product(elements, repeat=2):
                v = MBValuation(K2, MBMode.POINTWISE, atom_values={"p": pv, "q": qv})
                out = eval_mb(f, v)
                assert out.value == standard(_classical_element(f, {"p": pv, "q": qv}))
                assert out.admissible  # no acts at all

    def test_pointwise_content_negation_law(self):
        rng = random.Random(13)
        gens = {
            ("f", "p"): hyper(el(K2, "a"), K2.top()),
            ("f", "q"): hyper(K2.bottom(), el(K2, "b")),
        }
        v = MBValuation(K2, MBMode.POINTWISE, generators=gens)
        for _ in range(120):
            content = random_force_free(rng, depth=3)
            lhs = eval_mb(Force("f", Not(content)), v).value
            rhs = content_neg(eval_mb(Force("f", content), v).value)
            assert lhs == rhs

    def test_admissibility_flags_standard_act_subvalues(self):
        gens = {
            ("f", "p"): hyper(el(K2, "a"), K2.bottom()),
            ("f", "q"): hyper(K2.bottom(), el(K2, "a")),
        }
        v = MBValuation(K2, MBMode.POINTWISE, generators=gens)
        out = eval_mb(parse_formula("[f](p & q)"), v)
        assert is_standard(out.value)
        assert not out.admissible

    def test_missing_assignments(self):
        v = MBValuation(K2, MBMode.FREE)
        with pytest.raises(MissingAssignment):
            eval_mb(parse_formula("[f](p)"), v)
        v = MBValuation(K2, MBMode.POINTWISE)
        with pytest.raises(MissingAssignment):
            eval_mb(parse_formula("[f](p)"), v)
        with pytest.raises(MissingAssignment):
            eval_mb(parse_formula("p"), v)
        with pytest.raises(MissingAssignment):
            eval_mb(parse_formula("[a]([b](p))"), v)

    def test_cyclic_act_rejected(self):
        from illoc.syntax import CyclicAct

        result = parse("act x = [promise](~x); x")
        with pytest.raises(CyclicAct):
            eval_mb(result.formula, MBValuation(K2), result.definitions)


def _classical_element(f, e):
    if isinstance(f, Atom):
        return e[f.name]
    if isinstance(f, Not):
        return complement(_classical_element(f.body, e))
    if isinstance(f, And):
        return meet(_classical_element(f.left, e), _classical_element(f.right, e))
    if isinstance(f, Or):
        return join(_classical_element(f.left, e), _classical_element(f.right, e))
    if isinstance(f, Implies):
        return join(
            complement(_classical_element(f.left, e)), _classical_element(f.right, e)
        )
    raise TypeError(f)


def _scanned_keys(formulas, mode):
    """The slot keys scan_mb hands its verdict, in scan order."""
    seen = []

    def stop(scan, codes):
        seen.extend(scan.keys)
        return True

    scan_mb(formulas, K1, mode, stop)
    return seen


def _size(program):
    """The number of instructions of a lowered program."""
    code, _ = program.link(program.leaves)
    return len(code)


class TestProgram:
    """All formulas of a scan lower into one hash-consed program."""

    A = parse_formula("[f](p & ~q) -> ([f]([g](p)) | ~[f](p & ~q)) & r")

    @pytest.mark.parametrize("mode", MODES)
    def test_reflexive_implication_adds_one_instruction(self, mode):
        alone = lower([self.A], mode, 2)[0]
        assert _size(lower([Implies(self.A, self.A)], mode, 2)[0]) == _size(alone) + 1

    @pytest.mark.parametrize("mode", MODES)
    def test_entailment_of_a_formula_by_itself_lowers_it_once(self, mode):
        alone = lower([self.A], mode, 2)[0]
        program, (left, right), (forces, again) = lower([self.A, self.A], mode, 2)
        assert _size(program) == _size(alone)
        assert left == right and forces == again

    @pytest.mark.parametrize("mode", [MBMode.POINTWISE, MBMode.CONNECTIVE])
    def test_the_square_lowers_each_force_once(self, mode):
        program, _, forces = lower(_square_formulas("f", "p"), mode, 2)
        # F(p) is its generator and F(~p) one content negation of it
        registers = {x for found in forces for _, x in found}
        assert len(registers) == 2
        # F(~p), ~F(~p), ~F(p), their |, F(~p) & F(p) and its ~
        assert _size(program) == 6

    def test_forces_are_listed_in_postorder(self):
        _, _, (forces,) = lower([parse_formula("[a]([b](p)) & [c](q)")], MBMode.POINTWISE, 1)
        assert [format_formula(f) for f, _ in forces] == ["[b](p)", "[a]([b](p))", "[c](q)"]

    @pytest.mark.parametrize("mode,key", [(MBMode.POINTWISE, ("gen", "b", "p")),
                                          (MBMode.CONNECTIVE, ("gen", "b", "p")),
                                          (MBMode.FREE, ("act", "[b](p)"))])
    def test_nested_forces_keep_slot_order_and_first_witness(self, mode, key):
        f = parse_formula("[a]([b](p))")
        assert slot_keys([f], mode) == [key, ("sig", "a")]
        result = is_tautology_mb(f, K2, mode)
        # the inner force's slot is scanned before, so more significant than, the signature
        inner = {"on_true": [], "on_false": ["a"]}
        witness = valuation_to_json(result.witness)
        assert (witness["act_values"] or witness["generators"]["b"]) == {key[-1]: inner}
        assert witness["signatures"] == {"a": {"on_true": [], "on_false": ["b"]}}
        assert (result.status, result.checked) == ("refuted", 144)
        assert str(result.witness_value) == "<{a,b},{a}>"

    @pytest.mark.parametrize("mode,inner", [(MBMode.POINTWISE, ("gen", "b", "q")),
                                            (MBMode.CONNECTIVE, ("gen", "b", "q")),
                                            (MBMode.FREE, ("act", "[b](q)"))])
    def test_leaves_first_seen_against_scan_order_link_to_their_slots(self, mode, inner):
        f = parse_formula("[a]([b](q)) | ~p")
        lowered = lower([f], mode, 2)
        program = lowered[0]
        # a signature and the inner force's slot are seen before the atom, which is scanned first
        assert list(program.leaves) == [("sig", "a"), inner, ("atom", "p")]
        assert program.order() == [("atom", "p"), inner, ("sig", "a")]
        scan = MBScan(K2, mode, program.order(), lowered)
        # by hand: each slot in the register of its place in scan order, instruction i in 3 + i
        slot = {("atom", "p"): 0, inner: 1, ("sig", "a"): 2}
        sig_imp, standard_p, not_p, either = 3, 4, 5, 6
        assert [(a, b) for _, a, b in scan.code] == [
            (slot[("sig", "a")], slot[inner]),  # [a]([b](q)): the signature implies the inner force
            (slot[("atom", "p")], slot[("atom", "p")]),  # the standard copy of p
            (standard_p, standard_p),  # ~p
            (sig_imp, not_p),  # the disjunction
        ]
        ops = packed_ops(2)
        assert [op for op, _, _ in scan.code[:1] + scan.code[2:]] == [ops.imp, ops.neg, ops.or_]
        assert scan.roots == [either]
        assert [x for _, x in scan.forces[0]] == [slot[inner], sig_imp]
        result = is_tautology_mb(f, K2, mode)
        status, index, total = oracle_status(f, K2.atoms, mode.value)
        assert (result.status, index, result.checked) == ("refuted", 145, total)
        assert _oracle_index(f, K2.atoms, mode.value, result.witness) == index


def test_a_check_leaves_no_reference_cycle_behind():
    # lowering, linking and the witness are freed by reference counting alone,
    # so a check leaves nothing for the cycle collector to find
    f = parse_formula("[f](p -> q) -> ([f](p) -> [f](q))")
    for mode in MODES:  # each mode's lowering is built on its first use
        is_tautology_mb(f, K2, mode)
        find_idempotence_counterexample(K2, mode)
    gc.collect()
    gc.disable()
    try:
        for mode in MODES:
            is_tautology_mb(f, K2, mode)
            assert find_idempotence_counterexample(K2, mode).found  # a witness is built
        assert gc.collect() == 0
    finally:
        gc.enable()


_DEFINED = parse("act x = [think](p) -> q; x | ~x")
_M, _MB = CheckSpace("m"), CheckSpace("mb", K2, MBMode.POINTWISE)
_GENERATOR = hyper(el(K2, "a"), K2.bottom())
_CHECKS = {
    "is_tautology_m": lambda: is_tautology_m(parse_formula("[think](p) -> q")),
    "is_tautology_m with defs": lambda: is_tautology_m(_DEFINED.formula, _DEFINED.definitions),
    "entails m": lambda: entails(parse_formula("[think](p)"), parse_formula("p | q"), _M),
    "entails m with defs": lambda: entails(_DEFINED.formula, parse_formula("x"), _M,
                                           _DEFINED.definitions),
    "eval_m": lambda: eval_m(parse_formula("[think](p) -> q"), {"p": 1, "q": 0}),
    "eval_mb": lambda: eval_mb(parse_formula("[f](p) & p"), MBValuation(
        K2, MBMode.POINTWISE, {"p": K2.top()}, generators={("f", "p"): _GENERATOR})),
    "unfold_cyclic": lambda: unfold_cyclic(
        parse("act x = [f](~y); act y = [g](~x);").definitions, "x", 3, standard(K2.bottom())),
    "entails mb": lambda: entails(parse_formula("[f](p)"), parse_formula("[f](p) | q"), _MB),
    "is_tautology_mb with defs": lambda: is_tautology_mb(
        _DEFINED.formula, K2, MBMode.POINTWISE, defs=_DEFINED.definitions),
    "square_for_force": lambda: square_for_force("f", "p", _MB),
    "square_for_force with a generator": lambda: square_for_force("f", "p", _MB,
                                                                  generator=_GENERATOR),
    "find_neg_swap_counterexample": lambda: find_neg_swap_counterexample(K2, MBMode.POINTWISE),
}


@pytest.mark.parametrize("check", _CHECKS.values(), ids=_CHECKS)
def test_no_library_check_of_either_matrix_leaves_a_reference_cycle(check):
    check()  # builds what a first call caches: lowerings, decode tables
    gc.collect()
    gc.disable()
    try:
        check()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestRequirements:
    """What a formula reads from a valuation: the slot keys scan_mb scans."""

    def test_atoms_only_where_evaluated(self):
        f = _schema_formulas()["and-split"]
        free = slot_keys([f], MBMode.FREE)
        assert [key[0] for key in free] == ["act"] * 3
        pw = slot_keys([f], MBMode.POINTWISE)
        assert pw == [("gen", "f", "p"), ("gen", "f", "q")]

    def test_nested_forces_need_signatures(self):
        f = parse_formula("[a]([b](p))")
        assert slot_keys([f], MBMode.POINTWISE) == [("gen", "b", "p"), ("sig", "a")]

    @pytest.mark.parametrize("text,mode,expected", [
        ("[f](p) & q", MBMode.POINTWISE, [("atom", "q"), ("gen", "f", "p")]),
        ("[f](p) & q", MBMode.FREE, [("atom", "q"), ("act", "[f](p)")]),
        ("[a]([b](p)) & [c](q)", MBMode.CONNECTIVE,
         [("gen", "b", "p"), ("gen", "c", "q"), ("sig", "a")]),
    ])
    def test_scan_order_is_by_kind_not_first_seen(self, text, mode, expected):
        f = parse_formula(text)
        assert slot_keys([f], mode) == expected
        assert _scanned_keys([f], mode) == expected

    def test_keys_of_several_formulas_are_merged_first_seen(self):
        formulas = [parse_formula("[g](q) & r"), parse_formula("[f](p) & q")]
        expected = [("atom", "r"), ("atom", "q"), ("gen", "g", "q"), ("gen", "f", "p")]
        assert slot_keys(formulas, MBMode.POINTWISE) == expected
        assert _scanned_keys(formulas, MBMode.POINTWISE) == expected


class TestTautologyStatuses:
    @pytest.mark.parametrize("name", sorted(_schema_formulas()))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec,k", [(K1, 1), (K2, 2)])
    def test_matches_frozen_table_and_oracle(self, name, mode, spec, k):
        formula = _schema_formulas()[name]
        expected = EXPECTED_STATUS.get((name, mode.value))
        if expected is None:
            expected = EXPECTED_STATUS_BY_K[(name, mode.value, k)]
        result = is_tautology_mb(formula, spec, mode)
        assert result.status == expected
        status, index, _ = oracle_status(formula, spec.atoms, mode.value)
        assert status == expected
        if result.status == "refuted":
            # the first witness in scan order, the same one the oracle finds
            assert _oracle_index(formula, spec.atoms, mode.value, result.witness) == index
            # the stored witness really refutes, admissibly
            out = eval_mb(formula, result.witness)
            assert out.admissible
            assert out.value == result.witness_value
            assert result.witness_value != standard(spec.top())

    def test_and_split_free_witness_from_direct_computation(self):
        v = MBValuation(
            K2, MBMode.FREE,
            act_values={
                "[f](p & q)": hyper(K2.top(), el(K2, "a")),
                "[f](p)": hyper(K2.bottom(), el(K2, "b")),
                "[f](q)": hyper(K2.bottom(), el(K2, "b")),
            },
        )
        out = eval_mb(_schema_formulas()["and-split"], v)
        assert out.value == hyper(K2.bottom(), el(K2, "b"))
        assert out.admissible

    def test_imp_distribution_pointwise_witness_from_direct_computation(self):
        v = MBValuation(
            K2, MBMode.POINTWISE,
            generators={
                ("f", "p"): hyper(el(K2, "a"), K2.top()),
                ("f", "q"): hyper(K2.bottom(), el(K2, "a")),
            },
        )
        out = eval_mb(_schema_formulas()["imp-distribution"], v)
        assert out.value == hyper(el(K2, "b"), K2.top())
        assert out.admissible

    def test_statuses_stable_under_renaming(self):
        renamed = parse_formula("[g](u & w) -> ([g](u) & [g](w))")
        for mode in MODES:
            original = is_tautology_mb(_schema_formulas()["and-split"], K2, mode)
            other = is_tautology_mb(renamed, K2, mode)
            assert original.status == other.status

    def test_refutations_at_k1_persist_at_k2(self):
        for name in ("and-split", "or-merge"):
            formula = _schema_formulas()[name]
            assert is_tautology_mb(formula, K1, MBMode.FREE).status == "refuted"
            assert is_tautology_mb(formula, K2, MBMode.FREE).status == "refuted"

    def test_inadmissible_refutations_can_reappear_without_filter(self):
        formula = _schema_formulas()["and-split"]
        strict = is_tautology_mb(formula, K2, MBMode.POINTWISE, admissible_only=True)
        loose = is_tautology_mb(formula, K2, MBMode.POINTWISE, admissible_only=False)
        assert strict.status == "tautology"
        assert loose.status == "tautology"  # holds even on inadmissible valuations

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExceeded):
            is_tautology_mb(_schema_formulas()["and-split"], K2, MBMode.FREE, budget=10)

    def test_atom_only_scan_builds_no_nonstandard_domain(self, monkeypatch):
        def unreachable(spec):
            raise AssertionError("a nonstandard domain was built for a scan with no such slot")

        monkeypatch.setattr(illoc.matrix_mb, "_nonstandard_codes", unreachable)
        k12 = AlgebraSpec(tuple(f"a{i}" for i in range(12)))
        result = is_tautology_mb(parse_formula("p | ~p"), k12, MBMode.POINTWISE)
        assert (result.status, result.checked) == ("tautology", 4096)

    @pytest.mark.parametrize("mode", MODES)
    def test_over_budget_scan_builds_no_nonstandard_domain(self, mode, monkeypatch):
        def unreachable(spec):
            raise AssertionError("a nonstandard domain was built before the budget check")

        # at K2, an atom slot of 4 values and an act or generator slot of 12
        formula = parse_formula("p & [f](p)")
        assert is_tautology_mb(formula, K2, mode, budget=48).checked == 48
        monkeypatch.setattr(illoc.matrix_mb, "_nonstandard_codes", unreachable)
        with pytest.raises(BudgetExceeded, match="^48 assignments exceed the budget of 47$"):
            is_tautology_mb(formula, K2, mode, budget=47)


class TestDeterminism:
    def test_jobs_do_not_change_verdicts_or_witnesses(self):
        for name, formula in _schema_formulas().items():
            for mode in MODES:
                one = is_tautology_mb(formula, K2, mode, jobs=1)
                eight = is_tautology_mb(formula, K2, mode, jobs=8)
                assert one.status == eight.status, (name, mode)
                assert one.witness == eight.witness
                assert one.witness_value == eight.witness_value


class TestLawFailures:
    @pytest.mark.parametrize("mode", MODES)
    def test_performing_twice_differs_from_once(self, mode):
        result = find_idempotence_counterexample(K2, mode)
        assert result.found
        v = result.witness
        lhs = eval_mb(parse_formula("[f]([f](p))"), v)
        rhs = eval_mb(parse_formula("[f](p)"), v)
        assert lhs.value == result.left_value
        assert rhs.value == result.right_value
        assert lhs.value != rhs.value

    def test_negation_and_content_negation_come_apart(self):
        result = find_neg_swap_counterexample(K2, MBMode.POINTWISE)
        assert result.found
        g = hyper(el(K2, "a"), K2.bottom())
        assert hneg(g) == hyper(el(K2, "b"), K2.top())
        assert content_neg(g) == hyper(K2.bottom(), el(K2, "a"))

    def test_complementary_generators_make_the_swap_exact(self):
        result = find_neg_swap_counterexample(
            K2, MBMode.POINTWISE, complementary_only=True
        )
        assert not result.found

    def test_over_budget_complementary_search_builds_no_value(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a value was built before the budget check")

        monkeypatch.setattr(HyperValue, "__init__", unreachable)
        k9 = AlgebraSpec(tuple(f"a{i}" for i in range(9)))
        with pytest.raises(BudgetExceeded, match="512 assignments"):
            find_neg_swap_counterexample(k9, MBMode.POINTWISE, complementary_only=True, budget=10)

    def test_difference_search_is_symmetric_on_identical_formulas(self):
        result = find_difference(
            parse_formula("[f](p)"), parse_formula("[f](p)"), K2, MBMode.POINTWISE
        )
        assert not result.found


class TestScanDomains:
    """The code domains of a scan against the object enumeration they stand for."""

    @pytest.mark.parametrize("spec", [K1, K2, K3, K4], ids=["K1", "K2", "K3", "K4"])
    def test_nonstandard_codes_follow_the_object_enumeration(self, spec):
        codes = illoc.matrix_mb._nonstandard_codes(spec.k)
        assert list(codes) == [encode(h) for h in enumerate_nonstandard(spec)]

    @pytest.mark.parametrize("spec", [K1, K2, K3, K4], ids=["K1", "K2", "K3", "K4"])
    def test_complementary_domain_lists_the_complementary_values(self, spec, monkeypatch):
        passed = []
        monkeypatch.setattr(illoc.matrix_mb, "find_difference",
                            lambda *args, domains, **kwargs: passed.append(domains))
        find_neg_swap_counterexample(spec, MBMode.POINTWISE, complementary_only=True)
        expected = tuple(encode(h) for h in enumerate_nonstandard(spec)
                         if h.on_false == complement(h.on_true))
        assert passed == [{"gen": expected, "act": expected}]

    @pytest.mark.parametrize("domains,message", [
        ({"gen": (0,)}, r"0 is outside the domain of slot \('gen', 'f', 'p'\)"),  # standard
        ({"gen": (16,)}, r"16 is outside the domain of slot \('gen', 'f', 'p'\)"),  # past K2
        ({"atom": (4,)}, r"4 is outside the domain of slot \('atom', 'p'\)"),
        ({"atom": (-1,)}, r"-1 is outside the domain of slot \('atom', 'p'\)"),
        ({"gens": (1,)}, "unknown slot kind 'gens'"),
    ])
    def test_a_domain_outside_its_kind_is_refused(self, domains, message):
        with pytest.raises(ValueError, match=message):
            find_difference(parse_formula("[f](p)"), parse_formula("p"), K2, MBMode.POINTWISE,
                            domains=domains)

    def test_a_domain_restricts_the_scan_in_scan_order(self):
        g = encode(hyper(el(K2, "a"), K2.bottom()))
        result = find_difference(parse_formula("[f](p)"), parse_formula("p"), K2,
                                 MBMode.POINTWISE, domains={"gen": (g,), "atom": (3,)})
        assert result.checked == 1
        assert result.witness.generators == {("f", "p"): hyper(el(K2, "a"), K2.bottom())}
        assert result.witness.atom_values == {"p": K2.top()}


class TestUnfold:
    def _defs(self):
        return parse("act x = [promise](~x);").definitions

    def test_zero_steps_returns_seed(self):
        seed = standard(K2.bottom())
        assert unfold_cyclic(self._defs(), "x", 0, seed) == seed

    def test_distinct_seeds_stay_observable(self):
        defs = self._defs()
        low = unfold_cyclic(defs, "x", 4, standard(K2.bottom()))
        high = unfold_cyclic(defs, "x", 4, standard(K2.top()))
        assert low != high

    def test_orbit_alternates(self):
        defs = self._defs()
        seed = standard(K2.top())
        values = [unfold_cyclic(defs, "x", k, seed) for k in range(6)]
        signature = default_signatures(defs, K2)["promise"]
        assert values[1] == hneg(signature)
        assert values[2] == standard(K2.top())
        assert values[3] == values[1] and values[4] == values[2]

    def test_acyclic_act_rejected(self):
        defs = parse("act x = [promise](p);").definitions
        with pytest.raises(NotCyclic):
            unfold_cyclic(defs, "x", 2, standard(K2.bottom()))

    def test_mutual_cycle_unfolds(self):
        defs = parse("act x = [f](~y); act y = [g](~x);").definitions
        value = unfold_cyclic(defs, "x", 3, standard(K2.bottom()))
        assert value.algebra == K2

    def test_a_cycle_reached_only_through_an_acyclic_act_is_seeded(self):
        # after one round the tree holds w, not z; inlining w reaches z's cycle
        defs = parse("act x = [f](w) & ~x; act w = [g](z); act z = [h](~z);").definitions
        values = [str(unfold_cyclic(defs, "x", k, standard(K1.bottom()))) for k in range(7)]
        assert values == ["*0", "<{},{a}>", "*1", "*0", "<{},{a}>", "<{a},{}>", "<{},{a}>"]

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            unfold_cyclic(self._defs(), "x", -1, standard(K2.bottom()))

    def test_a_seed_from_another_algebra_is_rejected(self):
        with pytest.raises(ValueError) as error:
            unfold_cyclic(self._defs(), "x", 1, standard(K1.bottom()),
                          valuation=MBValuation(K2, MBMode.POINTWISE))
        assert str(error.value) == "seed is valued outside the valuation's algebra"


def _literal_unfolding(defs, act, steps, seed, valuation):
    """What `unfold_cyclic` computes, written out: the act's reference unfolded
    `steps` times as a tree of fresh nodes, every acyclic act inlined, every
    cyclic reference left bound to the seed, and one visit of the lowered tree.
    The outcome is the value or the exception, as (type, message)."""
    cyclic = frozenset(name for cycle in detect_cycles(defs) for name in cycle)

    def unfold(f, rounds):
        if isinstance(f, ActRef):
            return f if rounds == 0 else unfold(defs[f.name], rounds - 1)
        if isinstance(f, Atom):
            return Atom(f.name)
        if isinstance(f, Not):
            return Not(unfold(f.body, rounds))
        if isinstance(f, Force):
            return Force(f.force, unfold(f.content, rounds))
        return type(f)(unfold(f.left, rounds), unfold(f.right, rounds))

    if valuation is None:
        valuation = MBValuation(seed.algebra, signatures=default_signatures(defs, seed.algebra))
    tree = inline_acts(unfold(ActRef(act), steps), defs, keep=cyclic)
    seeded = {("ref", name): encode(seed) for name in cyclic}
    try:
        scan = illoc.matrix_mb._visit(tree, valuation, seeded, bound=cyclic,
                                      nested_pointwise=True)
    except MissingAssignment as error:
        return MissingAssignment, str(error)
    return scan.decode(scan.registers[scan.roots[0]])


@st.composite
def _cyclic_programs(draw):
    """Up to three acts over atoms p and q; each body holds one or two references,
    so an unfolding at most doubles per round."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    atoms = st.sampled_from([Atom("p"), Atom("q")])
    plain = st.one_of(atoms, st.builds(Not, atoms), st.builds(Force, st.just("f"), atoms),
                      st.builds(Force, st.just("f"), st.builds(And, atoms, atoms)))
    wrapped = st.sampled_from([ActRef(name) for name in names]).flatmap(
        lambda ref: st.sampled_from([ref, Not(ref), Force("g", ref), Force("f", Not(ref))]))
    defs = {}
    for name in names:
        parts = [draw(wrapped), draw(st.one_of(plain, wrapped))]
        if draw(st.booleans()):
            parts.reverse()
        defs[name] = draw(st.sampled_from([And, Or, Implies]))(*parts)
    return defs


UNFOLD_SEEDS = [standard(K1.bottom()), standard(K1.top()), hyper(K1.top(), K1.bottom())]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(defs=_cyclic_programs(), mode=st.sampled_from(MODES),
       seed=st.sampled_from(UNFOLD_SEEDS), given_values=st.booleans())
def test_unfold_cyclic_matches_the_literal_tree_unfolding(defs, mode, seed, given_values):
    valuation = None
    if given_values:  # p and f's generator on p valued, q and the rest left out
        valuation = MBValuation(K1, mode, atom_values={"p": K1.top()},
                                generators={("f", "p"): hyper(K1.top(), K1.bottom())},
                                signatures=default_signatures(defs, K1))
    for act in (name for cycle in detect_cycles(defs) for name in cycle):
        for steps in range(9):
            expected = _literal_unfolding(defs, act, steps, seed, valuation)
            try:
                value = unfold_cyclic(defs, act, steps, seed, valuation=valuation)
            except MissingAssignment as error:
                value = MissingAssignment, str(error)
            assert value == expected


class TestHomomorphismLaws:
    def test_pointwise_extension_is_lattice_homomorphic(self):
        gens = {
            ("f", "p"): hyper(el(K2, "a"), el(K2, "b")),
            ("f", "q"): hyper(K2.top(), el(K2, "a")),
        }
        v = MBValuation(K2, MBMode.POINTWISE, generators=gens)
        gp, gq = gens[("f", "p")], gens[("f", "q")]
        assert eval_mb(parse_formula("[f](p & q)"), v).value == pinf(gp, gq)
        assert eval_mb(parse_formula("[f](p | q)"), v).value == psup(gp, gq)
        assert eval_mb(parse_formula("[f](p -> q)"), v).value == psup(content_neg(gp), gq)

    def test_connective_extension_uses_matrix_operations(self):
        gens = {
            ("f", "p"): hyper(el(K2, "a"), el(K2, "b")),
            ("f", "q"): hyper(K2.top(), el(K2, "a")),
        }
        v = MBValuation(K2, MBMode.CONNECTIVE, generators=gens)
        gp, gq = gens[("f", "p")], gens[("f", "q")]
        assert eval_mb(parse_formula("[f](p & q)"), v).value == mb_and(gp, gq)
        assert eval_mb(parse_formula("[f](p -> q)"), v).value == mb_imp(gp, gq)


class TestPackedConnectives:
    """Every pair of packed values against the oracle's function tables."""

    @staticmethod
    def _values(spec):
        """(code, HyperValue, oracle table) for every value, standard or not."""
        k = spec.k
        out = []
        for code in range(1 << 2 * k):
            u, v = (frozenset(a for i, a in enumerate(spec.atoms) if half >> i & 1)
                    for half in (code & (1 << k) - 1, code >> k))
            out.append((code, hyper(spec.element(u), spec.element(v)),
                        term_table(spec.atoms, u, v)))
        return out

    @pytest.mark.parametrize("spec", [K1, K2, K3], ids=["K1", "K2", "K3"])
    def test_unary_connectives(self, spec):
        ops = packed_ops(spec.k)
        values = self._values(spec)
        for code, h, table in values:
            assert values[ops.neg(code)][2] == t_mb_neg(spec.atoms, table)
            assert values[ops.content_neg(code)][2] == t_content_neg(spec.atoms, table)
            assert ops.is_standard(code) == is_standard(h)
            for public, oracle in ((mb_neg, t_mb_neg), (hneg, t_neg)):
                assert public(h) == values[ops.neg(code)][1]
                assert values[ops.neg(code)][2] == oracle(spec.atoms, table)

    @pytest.mark.parametrize("spec", [K1, K2, K3], ids=["K1", "K2", "K3"])
    def test_binary_connectives(self, spec):
        ops = packed_ops(spec.k)
        values = self._values(spec)
        for (c1, h1, t1), (c2, h2, t2) in itertools.product(values, repeat=2):
            for packed, public, oracle in (
                (ops.and_, mb_and, t_mb_and(t1, t2)),
                (ops.or_, mb_or, t_mb_or(t1, t2)),
                (ops.imp, mb_imp, t_mb_imp(spec.atoms, t1, t2)),
                (ops.pinf, pinf, t_inf(t1, t2)),
                (ops.psup, psup, t_sup(t1, t2)),
                (ops.osup, osup, t_osup(t1, t2)),
                (ops.oinf, oinf, t_oinf(t1, t2)),
            ):
                code, value, table = values[packed(c1, c2)]
                assert table == oracle
                assert public(h1, h2) == value
            expected = t_leq(spec.atoms, t1, t2)
            assert ops.leq(c1, c2) == expected
            assert hleq(h1, h2) == expected
            assert equivalent(h1, h2) == (t1 == t2)

    def test_top_is_the_standard_top(self):
        for spec in (K1, K2, K3):
            assert self._values(spec)[packed_ops(spec.k).top][1] == standard(spec.top())


def test_oracle_imports_only_the_ast_from_illoc():
    """The oracles never import the code they check, only the AST node classes."""
    for oracle in (mb_oracle, m_oracle):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = []  # (module, names) for every import from the package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "illoc"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "illoc":
                imported.append((node.module, {alias.name for alias in node.names}))
        assert [module for module, _ in imported] == ["illoc.syntax"], oracle.__name__
        assert imported[0][1] <= {"Atom", "ActRef", "Not", "And", "Or", "Implies", "Force"}


def _formulas(depth):
    leaf = st.sampled_from([Atom("p"), Atom("q")])
    if depth == 0:
        return leaf
    sub = _formulas(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Force, st.sampled_from(["f", "g"]), sub),
    )


def _oracle_value(formula, atoms, mode, index):
    """The oracle's value of formula at the valuation with the given scan index."""
    assignment = {}
    for key, domain in reversed(oracle_slots(formula, atoms, mode)):
        index, choice = divmod(index, len(domain))
        assignment[key] = domain[choice]
    return oracle_eval(formula, atoms, mode, assignment, [])


class TestDifferentialAgainstOracle:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        formula=_formulas(4),
        spec=st.sampled_from([K1, K2, K3]),
        mode=st.sampled_from(MODES),
    )
    def test_tautology_scan_agrees_with_oracle(self, formula, spec, mode):
        sizes = [len(domain) for _, domain in oracle_slots(formula, spec.atoms, mode.value)]
        space = 1
        for size in sizes:
            space *= size
        if space > 3136:
            return
        result = is_tautology_mb(formula, spec, mode)
        status, index, total = oracle_status(formula, spec.atoms, mode.value)
        assert (result.status, result.checked) == (status, total)
        if status == "refuted":
            assert _oracle_index(formula, spec.atoms, mode.value, result.witness) == index
            assert valuation_from_json(valuation_to_json(result.witness)) == result.witness
            value = result.witness_value
            assert term_table(spec.atoms, value.on_true.atoms, value.on_false.atoms) == \
                _oracle_value(formula, spec.atoms, mode.value, index)
