import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_formula
from illoc.boolalg import AlgebraSpec
from illoc.matrix_mb import default_signatures
from illoc.syntax import (
    ActRef,
    And,
    Atom,
    CyclicAct,
    Force,
    ForceDecl,
    Implies,
    Not,
    Or,
    ParseError,
    UnknownActRef,
    atoms_of,
    detect_cycles,
    forces_of,
    format_formula,
    format_program,
    formula_from_json,
    formula_to_json,
    inline_acts,
    is_force_free,
    parse,
    parse_formula,
)


class TestParse:
    def test_force_implication(self):
        f = parse_formula("[promise](p) -> p")
        assert f == Implies(Force("promise", Atom("p")), Atom("p"))

    def test_negated_force_over_contradiction(self):
        f = parse_formula("~[order](p & ~p)")
        assert f == Not(Force("order", And(Atom("p"), Not(Atom("p")))))

    def test_self_denying_promise(self):
        result = parse("act x = [promise](~x); x")
        assert result.definitions == {"x": Force("promise", Not(ActRef("x")))}
        assert result.formula == ActRef("x")

    def test_precedence(self):
        assert parse_formula("~p & q | r -> s0") == Implies(
            Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s0")
        )

    def test_implication_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(
            Atom("p"), Implies(Atom("q"), Atom("r"))
        )

    def test_and_or_left_associative(self):
        assert parse_formula("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
        assert parse_formula("p | q | r") == Or(Or(Atom("p"), Atom("q")), Atom("r"))

    def test_comments_and_whitespace(self):
        text = """
        # the main act
        act x = [f](p);   # body
        x -> p
        """
        result = parse(text)
        assert result.formula == Implies(ActRef("x"), Atom("p"))

    def test_empty_program(self):
        result = parse("# nothing here")
        assert result.definitions == {} and result.formula is None

    def test_act_usable_as_plain_atom(self):
        assert parse_formula("act & p") == And(Atom("act"), Atom("p"))

    def test_forward_references_resolve(self):
        result = parse("act x = [f](y); act y = [g](x); x")
        assert result.definitions["x"] == Force("f", ActRef("y"))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "p &",
            "(p -> q",
            "[f] p",
            "[f](p",
            "[](p)",
            "p q",
            "act x = p",
            "act x = p; act x = q; x",
            "~",
            "p -> $",
        ],
    )
    def test_position_bearing_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line >= 1
        assert err.value.col >= 1
        assert str(err.value)

    def test_error_carries_expected_tokens(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & |")
        assert err.value.expected

    def test_error_position_points_at_offender(self):
        with pytest.raises(ParseError) as err:
            parse("p &\n& q")
        assert err.value.line == 2
        assert err.value.col == 1


# (function, text, (message, line, col, offset, expected)) for every place
# the parser reports an error, recorded from the recursive-descent parser
# that the explicit-stack one replaced. Columns count characters, tabs and
# "\r" included; at the end of input after a trailing comment the column is
# that of its "#".
PARSE_ERRORS = [
    ('parse', 'p -> $',
     ("unexpected character '$'", 1, 6, 5, ())),
    ('parse', 'p é q',
     ("unexpected character 'é'", 1, 3, 2, ())),
    ('parse', 'P',
     ("unexpected character 'P'", 1, 1, 0, ())),
    ('parse', 'a-b',
     ("unexpected character '-'", 1, 2, 1, ())),
    ('parse', 'p\r\n& $',
     ("unexpected character '$'", 2, 3, 5, ())),
    ('parse', '(p &\n q) $ # $ in a comment is fine',
     ("unexpected character '$'", 2, 5, 9, ())),
    ('parse', '[f p](q)',
     ("unexpected 'p'", 1, 4, 3, ("']'",))),
    ('parse', '[f] p',
     ("unexpected 'p'", 1, 5, 4, ("'(' around the force's content",))),
    ('parse', '[f]',
     ('unexpected end of input', 1, 4, 3, ("'(' around the force's content",))),
    ('parse', '[](p)',
     ("unexpected ']'", 1, 2, 1, ('force name',))),
    ('parse', '[~](p)',
     ("unexpected '~'", 1, 2, 1, ('force name',))),
    ('parse', '(p -> q',
     ('unexpected end of input', 1, 8, 7, ("')'",))),
    ('parse', '[f](p',
     ('unexpected end of input', 1, 6, 5, ("')'",))),
    ('parse', '[f](p q)',
     ("unexpected 'q'", 1, 7, 6, ("')'",))),
    ('parse', '((p)',
     ('unexpected end of input', 1, 5, 4, ("')'",))),
    ('parse', 'act x = p',
     ('unexpected end of input', 1, 10, 9, ("';'",))),
    ('parse', 'act x = p q;',
     ("unexpected 'q'", 1, 11, 10, ("';'",))),
    ('parse', 'act x = p;\nact y = q)',
     ("unexpected ')'", 2, 10, 20, ("';'",))),
    ('parse', 'act x = p; act x = q; x',
     ("duplicate act definition 'x'", 1, 16, 15, ())),
    ('parse', 'act x = p;\nact y = q;\n  act x = r;',
     ("duplicate act definition 'x'", 3, 7, 28, ())),
    ('parse', 'p q',
     ("unexpected 'q'", 1, 3, 2, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', 'p )',
     ("unexpected ')'", 1, 3, 2, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', '[f](p))',
     ("unexpected ')'", 1, 7, 6, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', 'act x = p; act y q',
     ("unexpected 'y'", 1, 16, 15, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', 'p &',
     ('unexpected end of input', 1, 4, 3, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', '~',
     ('unexpected end of input', 1, 2, 1, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', '()',
     ("unexpected ')'", 1, 2, 1, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'p -> ;',
     ("unexpected ';'", 1, 6, 5, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', '= p',
     ("unexpected '='", 1, 1, 0, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'p & |',
     ("unexpected '|'", 1, 5, 4, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'act x = ;',
     ("unexpected ';'", 1, 9, 8, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'p &  # trailing comment',
     ('unexpected end of input', 1, 6, 23, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'p &\r\n& q',
     ("unexpected '&'", 2, 1, 5, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', '\tp\t&\t',
     ('unexpected end of input', 1, 6, 5, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', '\t\t~\t)',
     ("unexpected ')'", 1, 5, 4, ("'~'", "'['", "'('", 'identifier'))),
    ('parse', 'act & act act',
     ("unexpected 'act'", 1, 11, 10, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', 'act x = act act;',
     ("unexpected 'act'", 1, 13, 12, ("';'",))),
    ('parse', 'act act = p; act =',
     ("unexpected '='", 1, 18, 17, ('end of input', "'->'", "'&'", "'|'"))),
    ('parse', 'p &\n# last line',
     ('unexpected end of input', 2, 1, 15, ("'~'", "'['", "'('", 'identifier'))),
    ('parse_formula', '',
     ('empty formula', 1, 1, 0, ('a formula',))),
    ('parse_formula', '# nothing here',
     ('empty formula', 1, 1, 14, ('a formula',))),
    ('parse_formula', 'act x = p;',
     ('empty formula', 1, 11, 10, ('a formula',))),
    ('parse_formula', 'act x = p;\r\n\t# only a definition',
     ('empty formula', 2, 2, 32, ('a formula',))),
    ('parse_formula', '  \n\n   ',
     ('empty formula', 3, 4, 7, ('a formula',))),
]


@pytest.mark.parametrize("function,text,error", PARSE_ERRORS)
def test_parse_error_table(function, text, error):
    with pytest.raises(ParseError) as raised:
        {"parse": parse, "parse_formula": parse_formula}[function](text)
    e = raised.value
    assert (e.message, e.line, e.col, e.offset, e.expected) == error


def test_parse_formula_refuses_a_definition():
    # parse keeps the definitions; parse_formula would drop them and keep the reference
    with pytest.raises(ParseError) as raised:
        parse_formula("act x = [think](p); x")
    e = raised.value
    assert (e.message, e.line, e.col, e.offset, e.expected) == (
        "unexpected act definition", 1, 1, 0, ("a formula",))
    with pytest.raises(ParseError) as raised:
        parse_formula("# header\n  act x = p; act y = q; x & y")
    assert (raised.value.line, raised.value.col, raised.value.offset) == (2, 3, 11)


class TestActsDefinedElsewhere:
    def test_names_bind_as_references(self):
        result = parse("x -> p", acts={"x"})
        assert result.formula == Implies(ActRef("x"), Atom("p"))
        assert result.definitions == {}

    def test_own_definitions_reference_them(self):
        result = parse("act y = ~x; y", acts={"x"})
        assert result.definitions == {"y": Not(ActRef("x"))}
        assert result.formula == ActRef("y")

    def test_redefinition_is_a_duplicate(self):
        with pytest.raises(ParseError) as raised:
            parse("act y = p;\nact x = q; x", acts={"x"})
        e = raised.value
        assert (e.message, e.line, e.col, e.offset) == ("duplicate act definition 'x'", 2, 5, 15)


class TestDeepNesting:
    def test_parentheses(self):
        depth = 100_000
        assert parse_formula("(" * depth + "p" + ")" * depth) == Atom("p")

    def test_negations_and_forces(self):
        depth = 100_000
        f = parse_formula("~[f](" * depth + "p" + ")" * depth)
        for _ in range(depth):
            assert isinstance(f, Not) and isinstance(f.body, Force)
            f = f.body.content
        assert f == Atom("p")

    def test_binary_nesting_is_walked_without_recursion(self):
        depth = 30_000  # past the recursion limit
        f = And(ActRef("x"), Force("f", Atom("p")))
        for i in range(depth):
            f = (And, Or, Implies)[i % 3](Atom(f"q{i % 7}"), f)
        assert atoms_of(f) == [f"q{i % 7}" for i in range(depth - 1, depth - 8, -1)] + ["p"]
        defs = {"x": f}
        assert forces_of(f, defs) == frozenset({"f"})
        assert detect_cycles(defs) == [["x"]]
        assert list(default_signatures(defs, AlgebraSpec(("a",)))) == ["f"]

    def test_unclosed_parentheses_report_the_end(self):
        depth = 100_000
        with pytest.raises(ParseError) as raised:
            parse("(" * depth + "p" + ")" * (depth - 1))
        assert (raised.value.col, raised.value.expected) == (2 * depth + 1, ("')'",))


class TestPrinter:
    def test_parenthesizes_lower_precedence(self):
        assert format_formula(And(Atom("p"), Or(Atom("q"), Atom("r")))) == "p & (q | r)"

    def test_right_associative_implication(self):
        f = Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
        assert format_formula(f) == "p -> q -> r"
        g = Implies(Implies(Atom("p"), Atom("q")), Atom("r"))
        assert format_formula(g) == "(p -> q) -> r"

    def test_associativity_parens_preserved(self):
        assert format_formula(And(Atom("p"), And(Atom("q"), Atom("r")))) == "p & (q & r)"
        assert format_formula(Or(Atom("p"), Or(Atom("q"), Atom("r")))) == "p | (q | r)"

    def test_negation(self):
        assert format_formula(Not(Not(Atom("p")))) == "~~p"
        assert format_formula(Not(And(Atom("p"), Atom("q")))) == "~(p & q)"
        assert format_formula(Not(Force("f", Atom("p")))) == "~[f](p)"

    def test_seeded_round_trip_corpus(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            f = random_formula(rng, depth=6)
            assert parse_formula(format_formula(f)) == f

    def test_program_round_trip(self):
        text = "act x = [f](~x);\nact y = [g](x & p);\ny -> p"
        result = parse(text)
        printed = format_program(result.definitions, result.formula)
        again = parse(printed)
        assert again.definitions == result.definitions
        assert again.formula == result.formula


@st.composite
def formulas(draw, depth=5):
    if depth <= 0:
        return Atom(draw(st.sampled_from(("p", "q", "r"))))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Atom(draw(st.sampled_from(("p", "q", "r"))))
    if kind == 1:
        return Not(draw(formulas(depth=depth - 1)))
    if kind == 2:
        return And(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == 3:
        return Or(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == 4:
        return Implies(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    return Force(draw(st.sampled_from(("f", "g"))), draw(formulas(depth=depth - 1)))


@given(formulas())
@settings(max_examples=200)
def test_round_trip_property(f):
    assert parse_formula(format_formula(f)) == f


# whitespace, line breaks and comments between tokens
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r\n", " # note ~ ( $\n", "\n\t# act x =\n"])
_SPACE = st.sampled_from([" ", "\t", "\n", "\r\n", " # act\n"])  # at least one break


@st.composite
def _noisy_text(draw, f, context=0):
    """f printed with random gaps and redundant parentheses; context as in `_fmt`."""
    gap = lambda: draw(_GAPS)  # noqa: E731
    if isinstance(f, (Atom, ActRef)):
        text, prec = f.name, 5
    elif isinstance(f, Force):
        content = draw(_noisy_text(f.content))
        text, prec = f"[{gap()}{f.force}{gap()}]{gap()}({gap()}{content}{gap()})", 5
    elif isinstance(f, Not):
        text, prec = "~" + gap() + draw(_noisy_text(f.body, 4)), 4
    else:
        op, prec, left_ctx, right_ctx = {
            And: ("&", 3, 3, 4), Or: ("|", 2, 2, 3), Implies: ("->", 1, 2, 1),
        }[type(f)]
        left = draw(_noisy_text(f.left, left_ctx))
        right = draw(_noisy_text(f.right, right_ctx))
        text = f"{left}{gap()}{op}{gap()}{right}"
    if prec < context or draw(st.integers(0, 5)) == 0:
        text = f"({gap()}{text}{gap()})"
    return text


@st.composite
def noisy_programs(draw):
    names = ("x", "y", "z")[: draw(st.integers(0, 3))]
    leaves = [Atom("p"), Atom("q"), Atom("act")] + [ActRef(n) for n in names]

    def bodies(depth):
        leaf = st.sampled_from(leaves)
        if depth <= 0:
            return leaf
        sub = bodies(depth - 1)
        return st.one_of(
            leaf, st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(Force, st.sampled_from(("f", "act")), sub),
        )

    defs = {name: draw(bodies(3)) for name in names}
    main = draw(st.none() | bodies(3))
    parts = [draw(_GAPS)]
    for name, body in defs.items():
        parts += ["act", draw(_SPACE), name, draw(_GAPS), "=", draw(_GAPS),
                  draw(_noisy_text(body)), draw(_GAPS), ";", draw(_GAPS)]
    if main is not None:
        parts += [draw(_noisy_text(main)), draw(_GAPS)]
    return defs, main, "".join(parts)


@given(noisy_programs())
@settings(max_examples=150, derandomize=True)
def test_noisy_program_parses_back(program):
    defs, main, text = program
    result = parse(text)
    assert list(result.definitions.items()) == list(defs.items())
    assert result.formula == main


@given(formulas())
@settings(max_examples=100)
def test_json_round_trip(f):
    assert formula_from_json(formula_to_json(f)) == f


@pytest.mark.parametrize(
    "data",
    [[{"kind": "atom", "name": "p"}], {"kind": "not"}, {"kind": "atom", "name": 3}],
    ids=["list", "missing-field", "non-string-name"],
)
def test_malformed_json_is_a_value_error(data):
    with pytest.raises(ValueError):
        formula_from_json(data)


def test_an_unknown_formula_kind_is_named():
    with pytest.raises(ValueError) as error:
        formula_from_json({"kind": "bogus"})
    assert str(error.value) == "unknown formula kind: 'bogus'"


class TestCycles:
    def test_self_denying_promise_is_cyclic(self):
        defs = parse("act x = [f](~x);").definitions
        assert detect_cycles(defs) == [["x"]]

    def test_plain_definition_is_acyclic(self):
        defs = parse("act x = [f](p);").definitions
        assert detect_cycles(defs) == []

    def test_mutual_recursion(self):
        defs = parse("act x = [f](y); act y = [g](x);").definitions
        assert detect_cycles(defs) == [["x", "y"]]

    def test_mixed_environment(self):
        defs = parse(
            "act ok = [f](p); act x = [f](y); act y = [g](x); act top = [h](ok);"
        ).definitions
        assert detect_cycles(defs) == [["x", "y"]]

    def test_unknown_reference(self):
        with pytest.raises(UnknownActRef):
            detect_cycles({"x": ActRef("ghost")})

    def test_inline_acts_errors_on_cycles(self):
        defs = parse("act x = [f](~x);").definitions
        with pytest.raises(CyclicAct):
            inline_acts(ActRef("x"), defs)

    def test_inline_acts_flattens_chains(self):
        defs = parse("act x = [f](p); act y = x & q;").definitions
        assert inline_acts(ActRef("y"), defs) == And(Force("f", Atom("p")), Atom("q"))


def _unfolds_forever(name, defs, limit=64):
    """Brute-force check: does unfolding `name` reproduce `name` within limit steps?

    A feeder act that merely references a cyclic one unfolds forever too but
    participates in no cycle, so the check is self-reproduction, not mere
    non-termination.
    """
    frontier = {name}
    for _ in range(limit):
        frontier = {
            n.name for act in frontier for n in _nodes(defs[act]) if isinstance(n, ActRef)
        }
        if name in frontier:
            return True
        if not frontier:
            return False
    return False


def _nodes(f):
    yield f
    if isinstance(f, Not):
        yield from _nodes(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from _nodes(f.left)
        yield from _nodes(f.right)
    elif isinstance(f, Force):
        yield from _nodes(f.content)


@st.composite
def definition_environments(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]

    def bodies(depth):
        if depth <= 0:
            return st.sampled_from([Atom("p")] + [ActRef(n) for n in names])
        sub = bodies(depth - 1)
        return st.one_of(
            st.sampled_from([Atom("p")] + [ActRef(n) for n in names]),
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Force, st.just("f"), sub),
        )

    return {name: draw(bodies(3)) for name in names}


@given(definition_environments())
@settings(max_examples=150)
def test_detect_cycles_agrees_with_unfolding(defs):
    flagged = {name for cycle in detect_cycles(defs) for name in cycle}
    for name in defs:
        assert (name in flagged) == _unfolds_forever(name, defs)


def _mutual_reachability_groups(defs):
    """The cycle groups by brute force: the transitive closure of the reference
    relation, grown to a fixed point over every pair of acts."""
    names = list(defs)
    reaches = {(a, b) for a in names for b in names
               if any(isinstance(n, ActRef) and n.name == b for n in _nodes(defs[a]))}
    while True:
        grown = reaches | {(a, c) for a, b in reaches for b2, c in reaches if b == b2}
        if grown == reaches:
            break
        reaches = grown
    groups = []
    for name in names:
        group = [other for other in names if (name, other) in reaches and (other, name) in reaches]
        if group and group not in groups:
            groups.append(group)
    return groups


@st.composite
def reference_graphs(draw):
    """Up to five acts in any order, each referring to any of them (itself included)."""
    names = draw(st.permutations("abcde"))[: draw(st.integers(1, 5))]
    defs = {}
    for name in names:
        body = Atom("p")
        for target in draw(st.lists(st.sampled_from(names), max_size=3)):
            body = And(body, ActRef(target))
        defs[name] = body
    return defs


TWO_CYCLES = parse(  # the cycle c-b reaches the cycle d-a, which does not reach back
    "act d = [f](a); act c = [f](b) & d; act b = [f](c); act a = d | p; act e = c;"
).definitions


@given(st.one_of(definition_environments(), reference_graphs()))
@example(TWO_CYCLES)
@settings(max_examples=300)
def test_detect_cycles_groups_the_acts_that_reach_each_other(defs):
    assert detect_cycles(defs) == _mutual_reachability_groups(defs)


def test_a_cycle_that_reaches_another_is_its_own_group():
    assert detect_cycles(TWO_CYCLES) == [["d", "a"], ["c", "b"]]


class TestForceQueries:
    def test_force_free_conjunction(self):
        f = parse_formula("p & q")
        assert forces_of(f) == frozenset()
        assert is_force_free(f)

    def test_single_force(self):
        f = parse_formula("[promise](p) | q")
        assert forces_of(f) == frozenset({"promise"})
        assert not is_force_free(f)

    def test_nested_forces(self):
        f = parse_formula("[a]([b](p))")
        assert forces_of(f) == frozenset({"a", "b"})

    def test_reference_counts_through_definition(self):
        result = parse("act x = [f](p); x & q")
        assert forces_of(result.formula, result.definitions) == frozenset({"f"})
        assert not is_force_free(result.formula, result.definitions)

    def test_cyclic_reference_still_reports_forces(self):
        result = parse("act x = [f](~x); x")
        assert forces_of(result.formula, result.definitions) == frozenset({"f"})

    def test_unknown_reference_rejected(self):
        with pytest.raises(UnknownActRef):
            forces_of(ActRef("ghost"))


class TestForceDecl:
    def test_point_validation(self):
        ForceDecl("promise", "commissive")
        ForceDecl("promise")
        with pytest.raises(ValueError):
            ForceDecl("promise", "emphatic")
        with pytest.raises(ValueError):
            ForceDecl("Promise")

    def test_json_round_trip(self):
        decl = ForceDecl("order", "directive")
        assert ForceDecl.from_json(decl.to_json()) == decl
        bare = ForceDecl("order")
        assert ForceDecl.from_json(bare.to_json()) == bare


class TestAtomsOf:
    def test_occurrence_order(self):
        assert atoms_of(parse_formula("q & p & q")) == ["q", "p"]
