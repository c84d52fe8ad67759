import itertools
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import m_oracle
from conftest import random_force_free
from illoc.matrix_m import (
    AND_TABLE,
    CARRIER,
    CODE,
    FORCE_TABLE,
    FORCE_TABLE16,
    IMP_TABLE,
    LEQ_TABLE,
    NEG_TABLE,
    NEG_TABLE16,
    NOT_LEQ_MASK,
    NOT_ONE_MASK,
    OR_TABLE,
    MissingAtom,
    MScan,
    TruthValue4,
    and4,
    check_matrix_properties,
    classify,
    contradiction_profile,
    eval_m,
    force4,
    imp4,
    is_tautology_m,
    lower,
    neg4,
    or4,
    scan_m,
)
from illoc.opposition import CheckSpace, _square_formulas, entails
from illoc.syntax import ActRef, And, Atom, Force, Implies, Not, Or, parse, parse_formula, walk

ONE, HALF, ZERO, NEG = (
    TruthValue4.ONE,
    TruthValue4.HALF,
    TruthValue4.ZERO,
    TruthValue4.NEG_HALF,
)


class TestOperations:
    def test_force_on_classical_values(self):
        assert force4(ONE) == HALF
        assert force4(ZERO) == NEG

    def test_force_fixes_performances(self):
        assert force4(HALF) == HALF
        assert force4(NEG) == NEG

    def test_force_range_and_idempotence(self):
        assert {force4(x) for x in CARRIER} == {HALF, NEG}
        for x in CARRIER:
            assert force4(force4(x)) == force4(x)

    def test_negation(self):
        assert neg4(ONE) == ZERO and neg4(ZERO) == ONE
        assert neg4(HALF) == NEG and neg4(NEG) == HALF

    def test_dualized_clauses(self):
        assert or4(HALF, NEG) == NEG
        assert and4(HALF, NEG) == HALF

    def test_classical_clauses(self):
        assert or4(ONE, NEG) == ONE
        assert and4(ONE, HALF) == HALF
        assert or4(HALF, ZERO) == HALF

    def test_implication_branches(self):
        assert imp4(HALF, NEG) == ZERO
        assert imp4(ONE, HALF) == HALF
        assert imp4(ZERO, NEG) == HALF
        assert imp4(ZERO, ZERO) == ONE

    def test_implication_matches_arithmetic(self):
        for x, y in itertools.product(CARRIER, repeat=2):
            expected = 1 - max(x.rational, y.rational) + y.rational
            assert imp4(x, y).rational == Fraction(expected)

    def test_order_is_numeric(self):
        assert NEG < ZERO < HALF < ONE

    def test_every_comparison_is_the_order_of_the_values(self):
        for x, y in itertools.product(CARRIER, repeat=2):
            assert (x < y, x <= y, x > y, x >= y) == (
                x.value < y.value, x.value <= y.value, x.value > y.value, x.value >= y.value)

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge],
                             ids=lambda compare: compare.__name__)
    def test_a_value_is_not_ordered_against_an_int(self, compare):
        with pytest.raises(TypeError):
            compare(ONE, 2)
        with pytest.raises(TypeError):
            compare(2, ONE)

    def test_a_value_is_not_its_int(self):
        assert (ONE == 2) is False and (ONE != 2) is True


class TestClassification:
    @pytest.mark.parametrize(
        "value,label",
        [
            (ONE, "true-sentence"),
            (ZERO, "false-sentence"),
            (HALF, "successful-performance"),
            (NEG, "unsuccessful-performance"),
        ],
    )
    def test_labels(self, value, label):
        assert classify(value) == label

    def test_rendering(self):
        assert [str(v) for v in CARRIER] == ["1", "1/2", "0", "-1/2"]

    @pytest.mark.parametrize("value,oracle", [(ONE, m_oracle.ONE), (HALF, m_oracle.HALF),
                                              (ZERO, m_oracle.ZERO), (NEG, m_oracle.NEG_HALF)],
                             ids=lambda v: getattr(v, "name", v))
    def test_rational_is_the_oracles_value(self, value, oracle):
        assert type(value.rational) is Fraction
        assert value.rational == Fraction(oracle)


class TestEval:
    def test_successful_performance(self):
        assert eval_m(parse_formula("[think](p)"), {"p": 1}) == HALF

    def test_illocutionary_contradiction(self):
        f = parse_formula("[think](p & ~p)")
        assert eval_m(f, {"p": 1}) == NEG
        assert eval_m(f, {"p": 0}) == NEG

    def test_reflexive_implication(self):
        assert eval_m(parse_formula("p -> p"), {"p": 0}) == ONE

    def test_any_force_name_acts_as_think(self):
        for name in ("think", "promise", "order"):
            assert eval_m(parse_formula(f"[{name}](p)"), {"p": 1}) == HALF

    def test_missing_atom(self):
        with pytest.raises(MissingAtom):
            eval_m(parse_formula("p & q"), {"p": 1})

    def test_bad_atom_value(self):
        with pytest.raises(ValueError):
            eval_m(parse_formula("p"), {"p": 2})

    @pytest.mark.parametrize(
        "text,assignment,error,args",
        [
            ("q & p", {"p": 2}, MissingAtom, ("q",)),
            ("p & q", {"p": 2}, ValueError, ("atoms take 0 or 1, got p=2",)),
            ("~[think](q) -> p", {"p": "1"}, MissingAtom, ("q",)),
            ("[think](r | p) & q", {"p": 7, "r": 1}, ValueError, ("atoms take 0 or 1, got p=7",)),
            ("p & q", {}, MissingAtom, ("p",)),
            ("(p -> p) | q", {"p": 1, "q": -1}, ValueError, ("atoms take 0 or 1, got q=-1",)),
        ],
    )
    def test_first_offending_leaf_decides_the_error(self, text, assignment, error, args):
        with pytest.raises(ValueError) as raised:
            eval_m(parse_formula(text), assignment)
        assert (type(raised.value), raised.value.args) == (error, args)

    def test_acts_resolve_through_definitions(self):
        result = parse("act x = [think](p); x -> p")
        assert eval_m(result.formula, {"p": 1}, result.definitions) == ONE

    def test_cyclic_act_rejected(self):
        from illoc.syntax import CyclicAct

        result = parse("act x = [think](~x); x")
        with pytest.raises(CyclicAct):
            eval_m(result.formula, {}, result.definitions)

    def test_agrees_with_classical_semantics_when_force_free(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_force_free(rng, depth=4, atoms=("p", "q", "r"))
            for bits in itertools.product((0, 1), repeat=3):
                e = dict(zip(("p", "q", "r"), bits))
                value = eval_m(f, e)
                assert value in (ONE, ZERO)
                assert (value == ONE) == _classical(f, e)


def _classical(f, e):
    from illoc.syntax import And, Atom, Implies, Not, Or

    if isinstance(f, Atom):
        return bool(e[f.name])
    if isinstance(f, Not):
        return not _classical(f.body, e)
    if isinstance(f, And):
        return _classical(f.left, e) and _classical(f.right, e)
    if isinstance(f, Or):
        return _classical(f.left, e) or _classical(f.right, e)
    if isinstance(f, Implies):
        return (not _classical(f.left, e)) or _classical(f.right, e)
    raise TypeError(f)


class TestProperties:
    def test_report_shape(self):
        report = check_matrix_properties()
        assert [p.prop_id for p in report] == [
            "force-deflates",
            "neg-force-deflates",
            "and-superdistributes",
            "or-subdistributes",
            "imp-superdistributes",
            "force-idempotent",
            "force-neg-commutes",
        ]
        assert [p.checked for p in report] == [4, 4, 16, 16, 16, 4, 4]

    def test_six_of_seven_hold(self):
        # The implication law fails at exactly (1/2, 0) under the matrix's
        # own tables: F(1/2 -> 0) = F(1/2) = 1/2 while F(1/2) -> F(0) =
        # 1/2 -> -1/2 = 0. Everything else holds on every tuple.
        report = {p.prop_id: p for p in check_matrix_properties()}
        for prop_id, prop in report.items():
            if prop_id == "imp-superdistributes":
                assert not prop.holds
                assert prop.violations == ((HALF, ZERO),)
            else:
                assert prop.holds, prop_id
                assert prop.violations == ()

    def test_and_superdistribution_is_strict(self):
        lhs = and4(force4(ONE), force4(ZERO))
        rhs = force4(and4(ONE, ZERO))
        assert lhs == HALF and rhs == NEG and lhs > rhs

    def test_classical_restriction_turns_laws_into_equalities(self):
        for a, b in itertools.product((ONE, ZERO), repeat=2):
            assert a == a  # force removed: (1) and (2) are trivial identities
            assert and4(a, b) == and4(a, b)
            assert or4(a, b) == or4(a, b)
            assert imp4(a, b) == imp4(a, b)


class TestTautologies:
    def test_force_detachment(self):
        assert is_tautology_m(parse_formula("[think](p) -> p")).status == "tautology"

    def test_converse_refuted(self):
        result = is_tautology_m(parse_formula("p -> [think](p)"))
        assert result.status == "refuted"
        assert result.witness == {"p": 0}
        assert result.witness_value == HALF
        # the intuitive witness refutes as well
        assert eval_m(parse_formula("p -> [think](p)"), {"p": 1}) == HALF

    def test_negative_detachment(self):
        assert is_tautology_m(parse_formula("~[think](p) -> ~p")).status == "tautology"
        result = is_tautology_m(parse_formula("~p -> ~[think](p)"))
        assert result.status == "refuted"
        assert result.witness == {"p": 0}
        assert result.witness_value == HALF

    def test_modus_ponens_warps_under_force(self):
        plain = is_tautology_m(parse_formula("(p & (p -> q)) -> q"))
        assert plain.status == "tautology"
        warped = is_tautology_m(
            parse_formula("([think](p) & [think](p -> q)) -> [think](q)")
        )
        assert warped.status == "refuted"
        assert warped.witness == {"p": 0, "q": 0}
        assert warped.witness_value == ZERO

    def test_witness_is_first_in_counting_order(self):
        result = is_tautology_m(parse_formula("p | q"))
        assert result.witness == {"p": 0, "q": 0}

    def test_cyclic_act_rejected(self):
        from illoc.syntax import CyclicAct

        defs = parse("act x = [think](~x);").definitions
        with pytest.raises(CyclicAct):
            is_tautology_m(ActRef("x"), defs)


class TestContradictionProfile:
    def test_conjunction_with_negation_is_not_minimal(self):
        for row in contradiction_profile():
            assert row.conjunction >= row.performed_conjunction
            assert row.split_performance >= row.performed_conjunction

    def test_minimum_is_reached_by_performed_contradiction(self):
        values = {row.performed_conjunction for row in contradiction_profile()}
        assert NEG in values


def _size(program):
    """The number of instructions of a lowered program."""
    code, _ = program.link(program.leaves)
    return len(code)


class TestProgram:
    """All formulas of a scan lower into one hash-consed program."""

    A = parse_formula("[think](p & ~q) -> (r | [think](p & ~q)) & ~s")

    def test_a_repeated_subterm_is_one_instruction(self):
        program, _ = lower([self.A])
        # ~q, p & ~q, [think](..), r | .., ~s, .. & ~s, -> : the second force is shared
        assert _size(program) == 7
        assert list(program.leaves) == ["p", "q", "r", "s"]

    def test_reflexive_implication_adds_one_instruction(self):
        alone, _ = lower([self.A])
        program, (root,) = lower([Implies(self.A, self.A)])
        assert _size(program) == _size(alone) + 1

    def test_entailment_of_a_formula_by_itself_lowers_it_once(self):
        alone, _ = lower([self.A])
        program, (left, right) = lower([self.A, self.A])
        assert _size(program) == _size(alone)
        assert left == right

    def test_the_square_lowers_each_force_once(self):
        program, _ = lower(_square_formulas("think", "p"))
        code, _ = program.link(program.leaves, MScan.ops)
        forces = [table for table, _, _ in code if table is FORCE_TABLE16]
        # F(p), ~p, F(~p), ~F(~p), ~F(p), their |, F(~p) & F(p) and its ~
        assert (len(forces), len(code)) == (2, 8)


class TestCodeTables:
    """The code tables the compiled evaluator runs on, against the oracle's
    literals, and the instruction table `MScan` links each node kind to,
    against its connective on all 16 pairs of operands."""

    @pytest.mark.parametrize("kind,table,connective,oracle",
                             [(Not, NEG_TABLE, neg4, m_oracle.T_NEG),
                              (Force, FORCE_TABLE, force4, m_oracle.T_FORCE)],
                             ids=["neg", "force"])
    def test_unary(self, kind, table, connective, oracle):
        assert [str(v) for v in CARRIER] == list(m_oracle.CARRIER)
        for x in CARRIER:
            assert str(CARRIER[table[CODE[x]]]) == oracle[str(x)]
        instruction = MScan.ops[kind]
        assert len(instruction) == 16
        for x, y in itertools.product(CARRIER, repeat=2):  # the second operand is ignored
            assert CARRIER[instruction[CODE[x] * 4 + CODE[y]]] is connective(x)

    @pytest.mark.parametrize("kind,table,connective,oracle",
                             [(And, AND_TABLE, and4, m_oracle.T_AND),
                              (Or, OR_TABLE, or4, m_oracle.T_OR),
                              (Implies, IMP_TABLE, imp4, m_oracle.T_IMP)],
                             ids=["and", "or", "imp"])
    def test_binary(self, kind, table, connective, oracle):
        for x, y in itertools.product(CARRIER, repeat=2):
            assert str(CARRIER[table[CODE[x] * 4 + CODE[y]]]) == oracle[str(x), str(y)]
        instruction = MScan.ops[kind]
        assert len(instruction) == 16
        for x, y in itertools.product(CARRIER, repeat=2):
            assert CARRIER[instruction[CODE[x] * 4 + CODE[y]]] is connective(x, y)

    def test_every_node_kind_links_to_a_table(self):
        assert set(MScan.ops) == {Not, Force, And, Or, Implies}
        assert (MScan.ops[Not], MScan.ops[Force]) == (NEG_TABLE16, FORCE_TABLE16)

    def test_order(self):
        for x, y in itertools.product(CARRIER, repeat=2):
            assert LEQ_TABLE[CODE[x] * 4 + CODE[y]] == m_oracle.t_leq(str(x), str(y))

    def test_masks_are_their_verdicts_hit_conditions(self):
        for x, y in itertools.product(CARRIER, repeat=2):
            i = CODE[x] * 4 + CODE[y]
            assert NOT_ONE_MASK[i] == (str(x) != m_oracle.ONE)  # refutes; y is ignored
            assert NOT_LEQ_MASK[i] == (not m_oracle.t_leq(str(x), str(y)))  # violates entailment


def formulas(depth, atoms=("p", "q", "r")):
    leaf = st.sampled_from([Atom(name) for name in atoms])
    if depth == 0:
        return leaf
    sub = formulas(depth - 1, atoms)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Force, st.sampled_from(["think", "promise"]), sub),
    )


class TestDifferentialAgainstOracle:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(formula=formulas(5))
    def test_eval_on_every_assignment(self, formula):
        for bits in itertools.product((0, 1), repeat=3):
            assignment = dict(zip(("p", "q", "r"), bits))
            assert str(eval_m(formula, assignment)) == m_oracle.oracle_eval(formula, assignment)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(formula=formulas(5))
    def test_tautology_scan(self, formula):
        result = is_tautology_m(formula)
        status, witness, value = m_oracle.oracle_tautology(formula)
        assert (result.status, result.witness) == (status, witness)
        assert (None if value is None else str(result.witness_value)) == value

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(left=formulas(5), right=formulas(5))
    def test_entailment_scan(self, left, right):
        result = entails(left, right, CheckSpace("m"))
        holds, witness, lhs, rhs = m_oracle.oracle_entails(left, right)
        assert (result.holds, result.left_value, result.right_value) == (holds, lhs, rhs)
        assert result.witness == (None if witness is None else {"atom_values": witness})


def wide_formula(rng: random.Random):
    """An act-free formula over 8-10 atoms x0, x1, ..., every one of which
    occurs, with 40-120 nodes counted as a tree: the sizes the benchmark's
    matrix-m workload scans. It grows as a chain whose side operands are fresh
    atoms or small subterms reused several times, so lowering merges the
    repeats into one instruction each."""
    atoms = [Atom(f"x{i}") for i in range(rng.randint(8, 10))]
    fresh, nodes = rng.sample(atoms, len(atoms)), rng.randint(40, 120)
    shared: list = []
    formula, size = fresh.pop(), 1
    while fresh or size < nodes:
        kind = rng.choice((Not, Force, And, Or, Implies))
        if kind is Not:
            formula, size = Not(formula), size + 1
            continue
        if kind is Force:
            formula, size = Force("think", formula), size + 1
            continue
        if fresh and rng.random() < 0.5:
            other = fresh.pop()
        elif shared and rng.random() < 0.7:
            other = rng.choice(shared)
        else:
            a, b = rng.sample(atoms, 2)
            other = rng.choice((And(a, Not(b)), Force("think", Or(a, b)),
                                Implies(a, Force("think", b))))
            shared.append(other)
        formula = kind(formula, other) if rng.random() < 0.5 else kind(other, formula)
        size += 1 + sum(1 for _ in walk(other))
    return formula


class TestDifferentialAtWideSizes:
    """Full and early-ending scans over 256-1,024 assignments, against the oracle."""

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reflexive_implication(self, seed):
        rng = random.Random(seed)
        a = wide_formula(rng)
        alone, _ = lower([a])
        assert _size(alone) < sum(not isinstance(node, Atom) for node in walk(a))  # repeats merged
        result = is_tautology_m(Implies(a, a))
        assert m_oracle.oracle_tautology(Implies(a, a)) == ("tautology", None, None)
        assert (result.status, result.witness, result.witness_value) == ("tautology", None, None)

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_self_entailment(self, seed):
        rng = random.Random(seed)
        a = wide_formula(rng)
        result = entails(a, a, CheckSpace("m"))
        assert m_oracle.oracle_entails(a, a) == (True, None, None, None)
        assert (result.holds, result.witness) == (True, None)
        b = wide_formula(rng)  # and one that may fail, at a later first witness
        result = entails(a, b, CheckSpace("m"))
        holds, witness, lhs, rhs = m_oracle.oracle_entails(a, b)
        assert (result.holds, result.left_value, result.right_value) == (holds, lhs, rhs)
        assert result.witness == (None if witness is None else {"atom_values": witness})

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_contradiction_and_the_formula_itself(self, seed):
        rng = random.Random(seed)
        a = wide_formula(rng)
        for formula in (And(a, Not(a)), a):
            result = is_tautology_m(formula)
            status, witness, value = m_oracle.oracle_tautology(formula)
            assert (result.status, result.witness) == (status, witness)
            assert (None if value is None else str(result.witness_value)) == value
        assert is_tautology_m(And(a, Not(a))).status == "refuted"

    @settings(derandomize=True, deadline=None, max_examples=5)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_checks_that_compare_a_formula_with_an_atom(self, seed):
        """Unlike `A -> A`, these hold only if every register is fresh: each
        compares the formula with an atom's slot. An atom is classical, so
        `&` with it is a meet and `|` with it a join: a & x <= x, and
        a <= a | x. x10 is an eleventh atom, sorted between x1 and x2."""
        rng = random.Random(seed)
        a = wide_formula(rng)
        x10, x = Atom("x10"), Atom(f"x{rng.randrange(8)}")
        taut = Implies(And(a, x10), x10)
        assert m_oracle.oracle_tautology(taut) == ("tautology", None, None)
        assert is_tautology_m(taut).status == "tautology"
        assert m_oracle.oracle_entails(a, Or(a, x)) == (True, None, None, None)
        assert entails(a, Or(a, x), CheckSpace("m")).holds

    @pytest.mark.parametrize("seed", [0, 1, 7, 8, 10, 13, 24])
    def test_entailment_guarded_by_the_first_two_atoms(self, seed):
        """a & (x0 & x1) <= b | ~(x0 & x1) can fail only where x0 = x1 = 1,
        in the last quarter of the scan; the seeds, chosen with the oracle,
        give first witnesses at 75-88% of the space, and at 0 and 10 it
        holds."""
        rng = random.Random(seed)
        a, b = wide_formula(rng), wide_formula(rng)
        both = And(Atom("x0"), Atom("x1"))
        left, right = And(a, both), Or(b, Not(both))
        holds, witness, lhs, rhs = m_oracle.oracle_entails(left, right)
        assert holds == (seed in (0, 10))
        result = entails(left, right, CheckSpace("m"))
        assert (result.holds, result.left_value, result.right_value) == (holds, lhs, rhs)
        assert result.witness == (None if witness is None else {"atom_values": witness})
        if witness is not None:
            index = int("".join(str(witness[name]) for name in sorted(witness)), 2)
            assert index >= 3 * 2 ** len(witness) // 4

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_eval(self, seed):
        rng = random.Random(seed)
        a = wide_formula(rng)
        names = sorted(m_oracle.oracle_atoms(a))
        for _ in range(16):
            assignment = {name: rng.randint(0, 1) for name in names}
            assert str(eval_m(a, assignment)) == m_oracle.oracle_eval(a, assignment)


def _scanned_rows(fs, stop=None, mask=None):
    """(assignment, values) on every assignment scan_m hands its verdict, and
    what it returns, with a verdict that hits on the row at index stop only."""
    rows = []

    def record(scan, codes):
        rows.append((scan.assignment(), [str(CARRIER[code]) for code in codes]))
        return len(rows) - 1 if len(rows) - 1 == stop else None

    return rows, scan_m(fs, record, mask=mask)


class TestRegisterFreshness:
    """Every value a verdict gets is the formula's value on the assignment it
    reads, on every assignment: a stale register would not show in `A -> A`
    or `entail A A`, which hold whatever `A`'s register holds."""

    @staticmethod
    def check(fs):
        expected = [(a, [m_oracle.oracle_eval(f, a) for f in fs])
                    for a in m_oracle.oracle_assignments(*fs)]
        assert _scanned_rows(fs) == (expected, None)
        for stop in sorted({0, len(expected) // 2, len(expected) - 1}):
            rows, first = _scanned_rows(fs, stop)
            assert rows == expected[:stop + 1]
            assert first == (expected[stop][0], stop)  # the hit's assignment after the scan
        for code, value in enumerate(m_oracle.CARRIER):
            # a mask that selects one value of the first formula: the verdict
            # gets exactly the rows where it holds, in scan order
            mask = tuple(int(x == code) for x in range(4) for _ in range(4))
            assert _scanned_rows(fs, mask=mask) == (
                [row for row in expected if row[1][0] == value], None)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(fs=st.integers(3, 6).flatmap(lambda n: st.lists(
        formulas(4, tuple(f"x{i}" for i in range(n))), min_size=1, max_size=3)))
    def test_every_assignment_of_small_formulas(self, fs):
        self.check([*fs, Implies(fs[0], fs[-1])])

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_assignment_at_wide_sizes(self, seed):
        rng = random.Random(seed)
        a, b = wide_formula(rng), wide_formula(rng)
        self.check([a, b, Or(a, Force("think", b))])


class TestMask:
    """A scan with a mask calls its verdict only where the mask is 1."""

    @staticmethod
    def calls(fs, mask):
        """What scan_m returns, and the assignments its verdict was called on."""
        called = []

        def payload(scan, codes):
            called.append(scan.assignment())
            return [str(CARRIER[code]) for code in codes]

        return scan_m(fs, payload, mask=mask), called

    def test_no_call_on_a_scan_that_holds(self):
        a = wide_formula(random.Random(5))  # 10 atoms
        x = Atom("x3")
        assert self.calls([Implies(And(a, x), x)], NOT_ONE_MASK) == (None, [])
        assert self.calls([a, Or(a, x)], NOT_LEQ_MASK) == (None, [])

    def test_one_call_on_a_refutation(self):
        rng = random.Random(1)
        a, b = wide_formula(rng), wide_formula(rng)
        _, witness, value = m_oracle.oracle_tautology(a)
        assert witness is not None
        assert self.calls([a], NOT_ONE_MASK) == ((witness, [value]), [witness])
        both = And(Atom("x0"), Atom("x1"))  # fails at 772 of 1,024, as tested above
        left, right = And(a, both), Or(b, Not(both))
        _, witness, lhs, rhs = m_oracle.oracle_entails(left, right)
        assert self.calls([left, right], NOT_LEQ_MASK) == ((witness, [lhs, rhs]), [witness])


def _balanced_and(atoms):
    layer = list(atoms)
    while len(layer) > 1:
        layer = [And(*layer[i:i + 2]) if i + 1 < len(layer) else layer[i]
                 for i in range(0, len(layer), 2)]
    return layer[0]


class TestWideEarlyRefutation:
    """A space of 2**2000 assignments is answered at its first one: the scan
    does not recurse per slot, and groups no instructions before its first
    assignment misses."""

    ATOMS = [Atom(f"x{i:04}") for i in range(2000)]

    def test_refuted_at_the_all_zero_assignment(self):
        start = time.perf_counter()
        result = is_tautology_m(_balanced_and(self.ATOMS), budget=2**2000)
        assert time.perf_counter() - start < 1.0
        assert (result.status, result.witness_value) == ("refuted", ZERO)
        assert result.witness == {atom.name: 0 for atom in self.ATOMS}

    def test_eval(self):
        formula = _balanced_and(self.ATOMS)
        start = time.perf_counter()
        assert eval_m(formula, {atom.name: 1 for atom in self.ATOMS}) is ONE
        assert eval_m(formula, {atom.name: int(atom.name != "x1234") for atom in self.ATOMS}) is ZERO
        assert time.perf_counter() - start < 1.0
