import itertools

import pytest

import illoc.matrix_mb
from illoc.boolalg import AlgebraSpec, meet
from illoc.hyper import enumerate_nonstandard, hyper, hyper_to_json, square_report, standard
from illoc.matrix_m import CARRIER, SQUARE_RELATIONS
from illoc.matrix_mb import MBMode, StandardAssignment
from illoc.search import BudgetExceeded
from illoc.opposition import (
    CheckSpace,
    criterion_holds,
    entails,
    laws_report,
    square_for_force,
)
from illoc.syntax import parse_formula
import m_oracle
import mb_oracle as O

K2 = AlgebraSpec(("a", "b"))
M_SPACE = CheckSpace(matrix="m")
MB_SPACE = CheckSpace(matrix="mb", algebra=K2, mode=MBMode.POINTWISE)


def el(*names):
    return K2.element(names)


class TestEntailment:
    def test_performance_entails_content(self):
        assert entails(parse_formula("[think](p)"), parse_formula("p"), M_SPACE).holds

    def test_content_does_not_entail_performance(self):
        result = entails(parse_formula("p"), parse_formula("[think](p)"), M_SPACE)
        assert not result.holds
        assert result.witness == {"atom_values": {"p": 0}}
        assert (result.left_value, result.right_value) == ("0", "-1/2")
        # the intuitive witness p=1 violates the order as well (1 vs 1/2)
        from illoc.matrix_m import eval_m

        assert str(eval_m(parse_formula("p"), {"p": 1})) == "1"
        assert str(eval_m(parse_formula("[think](p)"), {"p": 1})) == "1/2"

    @pytest.mark.parametrize(
        "text", ["p", "[think](p)", "p -> q", "~[think](p & q)"]
    )
    def test_reflexive(self, text):
        f = parse_formula(text)
        assert entails(f, f, M_SPACE).holds

    def test_transitive_on_samples(self):
        pool = [
            parse_formula(text)
            for text in (
                "[think](p)",
                "p",
                "p | q",
                "[think](p & q)",
                "[think](p) & [think](q)",
                "~[think](p) -> ~p",
            )
        ]
        held = {
            (i, j): entails(f1, f2, M_SPACE).holds
            for i, f1 in enumerate(pool)
            for j, f2 in enumerate(pool)
        }
        for i in range(len(pool)):
            assert held[(i, i)]
            for j in range(len(pool)):
                for k in range(len(pool)):
                    if held[(i, j)] and held[(j, k)]:
                        assert held[(i, k)]

    def test_mb_detachment_entails(self):
        assert entails(parse_formula("[f](p)"), parse_formula("p"), MB_SPACE).holds

    def test_mb_reports_witness_valuations(self):
        result = entails(parse_formula("p"), parse_formula("[f](p)"), MB_SPACE)
        assert not result.holds
        assert "atom_values" in result.witness and "generators" in result.witness


class TestSquareMatrixM:
    def test_think_satisfies_the_whole_square(self):
        report = square_for_force("think", "p", M_SPACE)
        assert report.square_holds and report.criterion_holds
        assert report.contrary.holds
        assert report.contradictory.holds
        assert report.subcontrary.holds
        assert report.subaltern_left.holds and report.subaltern_right.holds

    def test_criterion_quantifies_both_assignments(self):
        assert criterion_holds("think", M_SPACE)

    def test_laws_evaluate_to_the_unsuccessful_value(self):
        report = laws_report("think", M_SPACE)
        assert [row.label for row in report.rows] == ["p=0", "p=1"]
        for row in report.rows:
            assert row.excluded_middle == "-1/2"
            assert row.contrariety == "-1/2"
        assert report.values_coincide
        assert not report.excluded_middle_always_designated
        assert not report.contrariety_always_designated


# The m square on the values of F(p), F(~p), ~F(~p), ~F(p), as m_oracle strings:
# success is the value 1/2 and failure -1/2.
M_RELATIONS = {
    "contrary": lambda fp, fnp, nfnp, nfp: not (fp == m_oracle.HALF and fnp == m_oracle.HALF),
    "contradictory": lambda fp, fnp, nfnp, nfp: (
        (fp == m_oracle.HALF) == (nfp == m_oracle.NEG_HALF)
        and (fnp == m_oracle.HALF) == (nfnp == m_oracle.NEG_HALF)
    ),
    "subcontrary": lambda fp, fnp, nfnp, nfp: not (
        nfp == m_oracle.NEG_HALF and nfnp == m_oracle.NEG_HALF
    ),
    "subaltern_left": lambda fp, fnp, nfnp, nfp: nfnp == m_oracle.HALF or fp != m_oracle.HALF,
    "subaltern_right": lambda fp, fnp, nfnp, nfp: nfp == m_oracle.HALF or fnp != m_oracle.HALF,
}


def m_oracle_square(force, atom):
    """Relation witnesses, criterion and law rows of the m square, from m_oracle.

    A relation's witness is its first failing assignment in the oracle's scan
    order; the criterion is the oracle's entailment F(~p) <= ~F(p).
    """
    corners = [parse_formula(text.format(f=force, p=atom))
               for text in ("[{f}]({p})", "[{f}](~{p})", "~[{f}](~{p})", "~[{f}]({p})")]
    em = parse_formula(f"~[{force}](~{atom}) | ~[{force}]({atom})")
    lc = parse_formula(f"~([{force}](~{atom}) & [{force}]({atom}))")
    witnesses, rows = {name: None for name in M_RELATIONS}, []
    for assignment in m_oracle.oracle_assignments(*corners):
        values = [m_oracle.oracle_eval(f, assignment) for f in corners]
        for name, relation in M_RELATIONS.items():
            if witnesses[name] is None and not relation(*values):
                witnesses[name] = {"atom_values": assignment}
        em_value = m_oracle.oracle_eval(em, assignment)
        lc_value = m_oracle.oracle_eval(lc, assignment)
        rows.append((f"{atom}={assignment[atom]}", em_value, lc_value,
                     em_value == m_oracle.ONE, lc_value == m_oracle.ONE))
    criterion = m_oracle.oracle_entails(corners[1], corners[3])[0]
    return witnesses, criterion, rows


class TestSquareMatrixMAgainstOracle:
    @pytest.mark.parametrize("force", ["think", "f"])
    @pytest.mark.parametrize("atom", ["p", "q"])
    def test_relations_criterion_and_law_rows(self, force, atom):
        witnesses, criterion, rows = m_oracle_square(force, atom)
        report = square_for_force(force, atom, M_SPACE)
        for name, witness in witnesses.items():
            assert getattr(report, name).holds == (witness is None), name
            assert getattr(report, name).witness == witness, name
        assert report.criterion_holds == report.square_holds == criterion
        assert criterion_holds(force, M_SPACE, atom=atom) == criterion
        laws = laws_report(force, M_SPACE, atom=atom)
        assert laws == report.laws
        assert [(row.label, row.excluded_middle, row.contrariety,
                 row.excluded_middle_designated, row.contrariety_designated)
                for row in laws.rows] == rows

    def test_relations_on_every_corner_tuple(self):
        # a square scan reaches only two corner tuples; the definitions must agree on all 256
        for codes in itertools.product(range(4), repeat=4):
            values = [str(CARRIER[c]) for c in codes]
            expected = {name: relation(*values) for name, relation in M_RELATIONS.items()}
            expected["criterion"] = m_oracle.t_leq(values[1], values[3])
            actual = {name: relation(*codes) for name, relation in SQUARE_RELATIONS.items()}
            assert actual == expected, codes

    def test_budget_of_one_is_refused(self):
        space = CheckSpace("m", budget=1)
        with pytest.raises(BudgetExceeded):
            square_for_force("think", "p", space)
        for check in (criterion_holds, laws_report):
            with pytest.raises(BudgetExceeded):
                check("think", space)


class TestSquareMatrixMB:
    def test_disjoint_generator_gives_full_square(self):
        report = square_for_force("f", "p", MB_SPACE, generator=hyper(el("a"), K2.bottom()))
        assert report.square_holds
        assert all(
            check.holds
            for check in (
                report.contrary,
                report.contradictory,
                report.subcontrary,
                report.subaltern_left,
                report.subaltern_right,
            )
        )

    def test_overlapping_generator_breaks_the_square(self):
        report = square_for_force("f", "p", MB_SPACE, generator=hyper(K2.top(), el("b")))
        assert not report.square_holds
        assert not report.contrary.holds
        assert report.contradictory.holds

    def test_standard_generator_rejected(self):
        with pytest.raises(StandardAssignment):
            square_for_force("f", "p", MB_SPACE, generator=standard(el("a")))
        with pytest.raises(StandardAssignment):
            criterion_holds("f", MB_SPACE, generator=standard(el("a")))

    def test_free_mode_rejected(self):
        free_space = CheckSpace(matrix="mb", algebra=K2, mode=MBMode.FREE)
        with pytest.raises(ValueError):
            square_for_force("f", "p", free_space)

    def test_criterion_is_component_disjointness(self):
        for g in enumerate_nonstandard(K2):
            expected = meet(g.on_true, g.on_false) == K2.bottom()
            assert criterion_holds("f", MB_SPACE, generator=g) == expected

    def test_quantified_report_fails_overall(self):
        report = square_for_force("f", "p", MB_SPACE)
        assert not report.square_holds  # some generator overlaps
        assert report.contradictory.holds  # complement laws never fail
        assert len(report.laws.rows) == 12

    def test_square_equivalence_over_all_generators(self):
        for g in enumerate_nonstandard(K2):
            report = square_for_force("f", "p", MB_SPACE, generator=g)
            hyper_side = square_report(g)
            bottom = meet(g.on_true, g.on_false) == K2.bottom()
            relations = (
                report.contrary.holds
                and report.subcontrary.holds
                and report.subaltern_left.holds
                and report.subaltern_right.holds
            )
            assert report.criterion_holds == report.square_holds == bottom
            assert relations == bottom
            assert hyper_side.holds == bottom


RELATIONS = ("contrary", "contradictory", "subcontrary", "subaltern_left", "subaltern_right")


def oracle_square(atoms):
    """Per nonstandard generator, in scan order, the square by the oracle's tables.

    Yields the generator's (f(1), f(0)), its relations, the criterion and the
    tables of ~F(~p) | ~F(p) and ~(F(~p) & F(p)).
    """
    bottom, top = O.const_table(atoms, frozenset()), O.const_table(atoms, frozenset(atoms))
    elements = O.elements(atoms)
    for u, v in itertools.product(elements, elements):
        if u == v:
            continue
        fp = O.term_table(atoms, u, v)
        fnp = O.t_content_neg(atoms, fp)
        nfnp, nfp = O.t_neg(atoms, fnp), O.t_neg(atoms, fp)
        relations = {
            "contrary": O.t_inf(fp, fnp) == bottom,
            "contradictory": all(
                O.t_inf(a, b) == bottom and O.t_sup(a, b) == top
                for a, b in ((fp, nfp), (fnp, nfnp))
            ),
            "subcontrary": O.t_sup(nfnp, nfp) == top,
            "subaltern_left": O.t_leq(atoms, fp, nfnp),
            "subaltern_right": O.t_leq(atoms, fnp, nfp),
        }
        laws = (O.t_mb_or(nfnp, nfp), O.t_mb_neg(atoms, O.t_mb_and(fnp, fp)))
        yield (u, v), relations, O.t_leq(atoms, fnp, nfp), laws


class TestQuantifiedSquareAgainstOracle:
    @pytest.mark.parametrize("mode", [MBMode.POINTWISE, MBMode.CONNECTIVE])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_relations_criterion_and_law_rows(self, k, mode):
        atoms = tuple("abcd"[:k])
        algebra = AlgebraSpec(atoms)
        space = CheckSpace("mb", algebra, mode)
        expected = list(oracle_square(atoms))

        def value(on_true, on_false):
            return hyper(algebra.element(on_true), algebra.element(on_false))

        def table_value(table):  # a table lists f(a) by element index: f(0) first, f(1) last
            return value(table[-1], table[0])

        report = square_for_force("f", "p", space)
        for name in RELATIONS:
            failing = [g for g, relations, _, _ in expected if not relations[name]]
            check = getattr(report, name)
            assert check.holds == (not failing), name
            witness = {"generator": hyper_to_json(value(*failing[0]))} if failing else None
            assert check.witness == witness, name
        criterion = all(c for _, _, c, _ in expected)
        assert report.criterion_holds == report.square_holds == criterion
        assert criterion_holds("f", space) == criterion

        assert len(report.laws.rows) == len(expected)
        for row, (g, _, _, (em, lc)) in zip(report.laws.rows, expected):
            assert row.label == f"generator={value(*g)}"
            assert row.excluded_middle == str(table_value(em))
            assert row.contrariety == str(table_value(lc))
            assert row.excluded_middle_designated == (em == O.const_table(atoms, frozenset(atoms)))
            assert row.contrariety_designated == (lc == O.const_table(atoms, frozenset(atoms)))
        assert laws_report("f", space) == report.laws

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fixed_generators(self, k):
        atoms = tuple("abc"[:k])
        algebra = AlgebraSpec(atoms)
        for mode, ((u, v), relations, criterion, (em, _)) in itertools.product(
                (MBMode.POINTWISE, MBMode.CONNECTIVE), oracle_square(atoms)):
            space = CheckSpace("mb", algebra, mode)
            g = hyper(algebra.element(u), algebra.element(v))
            report = square_for_force("f", "p", space, generator=g)
            assert {name: getattr(report, name).holds for name in RELATIONS} == relations
            assert report.square_holds == criterion == criterion_holds("f", space, generator=g)
            (row,) = report.laws.rows
            assert row.excluded_middle == str(hyper(algebra.element(em[-1]), algebra.element(em[0])))
            assert report.hyper.to_json()["relations"]["contrary"]["holds"] == relations["contrary"]
            assert report.hyper == square_report(g)


class TestLawsMatrixMB:
    def test_values_are_complement_of_component_join(self):
        from illoc.boolalg import complement, join

        for g in enumerate_nonstandard(K2):
            report = laws_report("f", MB_SPACE, generator=g)
            row = report.rows[0]
            expected = standard(complement(join(g.on_true, g.on_false)))
            assert row.excluded_middle == str(expected)
            assert row.contrariety == str(expected)
            assert report.values_coincide

    def test_concrete_example_not_designated(self):
        report = laws_report("f", MB_SPACE, generator=hyper(el("a"), K2.bottom()))
        assert report.rows[0].excluded_middle == "*{b}"
        assert not report.rows[0].excluded_middle_designated

    def test_never_designated_across_generators(self):
        report = laws_report("f", MB_SPACE)
        assert not report.excluded_middle_always_designated
        assert not report.contrariety_always_designated
        assert report.values_coincide


class TestBudget:
    K5 = AlgebraSpec(("a", "b", "c", "d", "e"))

    @pytest.fixture
    def no_generators(self, monkeypatch):
        def unreachable(spec):
            raise AssertionError("the generators were listed before the budget check")

        monkeypatch.setattr(illoc.matrix_mb, "_nonstandard_codes", unreachable)

    def test_quantified_square_refuses_before_listing_generators(self, no_generators):
        space = CheckSpace("mb", self.K5, MBMode.POINTWISE, budget=10)
        with pytest.raises(BudgetExceeded, match="992 assignments"):
            square_for_force("f", "p", space)

    def test_quantified_criterion_refuses_before_listing_generators(self, no_generators):
        space = CheckSpace("mb", self.K5, MBMode.POINTWISE, budget=10)
        with pytest.raises(BudgetExceeded, match="992 assignments"):
            criterion_holds("f", space)

    def test_fixed_generator_builds_no_domain_and_takes_no_budget(self, no_generators):
        g = hyper(self.K5.element(["a"]), self.K5.bottom())
        space = CheckSpace("mb", self.K5, MBMode.POINTWISE, budget=0)
        report = square_for_force("f", "p", space, generator=g)
        assert report.square_holds and len(report.laws.rows) == 1
        assert criterion_holds("f", space, generator=g)

    def test_generator_from_another_algebra_is_refused(self):
        g = hyper(K2.element(["a"]), K2.bottom())
        space = CheckSpace("mb", self.K5, MBMode.POINTWISE)
        with pytest.raises(ValueError, match=r"outside the domain of slot \('gen', 'f', 'p'\)"):
            square_for_force("f", "p", space, generator=g)

    def test_laws_scans_take_the_space_budget(self):
        with pytest.raises(BudgetExceeded):
            laws_report("f", CheckSpace("m", budget=1))
        with pytest.raises(BudgetExceeded):
            laws_report("f", CheckSpace("mb", K2, MBMode.POINTWISE, budget=11))
        assert len(laws_report("f", CheckSpace("mb", K2, MBMode.POINTWISE, budget=12)).rows) == 12


class TestSpaceValidation:
    def test_mb_requires_algebra(self):
        with pytest.raises(ValueError):
            CheckSpace(matrix="mb")

    def test_unknown_matrix(self):
        with pytest.raises(ValueError):
            CheckSpace(matrix="mc")
