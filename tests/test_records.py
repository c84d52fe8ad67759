"""The package's record types: equality only within one class, hashes consistent with it,
the field-by-field repr, fields that cannot be assigned or deleted, copying and pickling,
and the checks each constructor makes, with their exception types and messages."""

import copy
import pickle

import pytest

from illoc.boolalg import AlgebraSpec, Element
from illoc.hyper import HyperValue, classify_opposition, square_report, standard
from illoc.matrix_m import check_matrix_properties, contradiction_profile, is_tautology_m
from illoc.matrix_mb import (
    MBMode,
    MBValuation,
    StandardAssignment,
    eval_mb,
    find_difference,
    is_tautology_mb,
)
from illoc.opposition import CheckSpace, RelationCheck, entails, square_for_force
from illoc.syntax import (
    ActRef,
    And,
    Atom,
    Force,
    ForceDecl,
    Implies,
    Not,
    Or,
    parse,
    parse_formula,
)

K1 = AlgebraSpec(("a",))
K2 = AlgebraSpec(("a", "b"))
A, NONE = K1.top(), K1.bottom()
H = HyperValue(A, NONE)  # the nonstandard value <{a},{}>
P, Q = Atom("p"), Atom("q")


def _examples():
    """One record of every record type, with the name of its first field."""
    square = square_for_force("think", "p", CheckSpace("m"))
    return [
        (P, "name"), (Not(P), "body"), (And(P, Q), "left"), (Or(P, Q), "left"),
        (Implies(P, Q), "left"), (Force("f", P), "force"), (ActRef("x"), "name"),
        (ForceDecl("f", "assertive"), "name"), (parse("act x = [f](p); x"), "definitions"),
        (K1, "atoms"), (A, "algebra"), (H, "on_true"),
        (classify_opposition(H), "cases"), (square_report(H), "value"),
        (is_tautology_m(parse_formula("p -> [think](p)")), "status"),
        (check_matrix_properties()[0], "prop_id"), (contradiction_profile()[0], "a"),
        (MBValuation(K1), "algebra"),
        (eval_mb(P, MBValuation(K1, atom_values={"p": A})), "value"),
        (is_tautology_mb(parse_formula("[f](p) -> p"), K1, MBMode.POINTWISE), "status"),
        (find_difference(P, Not(Not(P)), K1, MBMode.POINTWISE), "found"),
        (CheckSpace("m"), "matrix"), (entails(P, P, CheckSpace("m")), "holds"),
        (RelationCheck(True), "holds"), (square.laws.rows[0], "label"), (square.laws, "rows"),
        (square, "matrix"),
    ]


EXAMPLES = _examples()


def test_there_is_an_example_of_each_of_the_27_record_types():
    assert len({type(record) for record, _ in EXAMPLES}) == len(EXAMPLES) == 27


@pytest.mark.parametrize("record,field", EXAMPLES, ids=[type(r).__name__ for r, _ in EXAMPLES])
def test_a_field_cannot_be_assigned_or_deleted(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert getattr(record, field) is value


@pytest.mark.parametrize("record,field", EXAMPLES, ids=[type(r).__name__ for r, _ in EXAMPLES])
def test_no_other_attribute_can_be_set(record, field):
    with pytest.raises(AttributeError):
        record.other = getattr(record, field)
    assert not hasattr(record, "other")


@pytest.mark.parametrize("record,field", EXAMPLES, ids=[type(r).__name__ for r, _ in EXAMPLES])
def test_a_record_equals_itself_and_nothing_of_another_class(record, field):
    assert record == record
    assert record != getattr(record, field)
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("record,field", EXAMPLES, ids=[type(r).__name__ for r, _ in EXAMPLES])
def test_a_record_survives_copy_deepcopy_and_pickle(record, field):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


@pytest.mark.parametrize("left,right", [
    (Atom("p"), ActRef("p")),
    (And(P, Q), Or(P, Q)),
    (Or(P, Q), Implies(P, Q)),
    (Not(P), Force("f", P)),
    (Atom("p"), "p"),
    (RelationCheck(True), (True, None)),
], ids=["atom-actref", "and-or", "or-implies", "not-force", "atom-str", "relation-tuple"])
def test_equality_holds_only_within_a_class(left, right):
    assert left != right and right != left
    assert not left == right


@pytest.mark.parametrize("make", [
    lambda: parse_formula("[f](p & ~q) -> x | p"),
    lambda: K2.element(["b", "a"]),
    lambda: HyperValue(A, NONE, ((NONE, A),)),
    lambda: ForceDecl("think"),
    lambda: CheckSpace("mb", K2, MBMode.FREE, budget=7),
], ids=["formula", "element", "hyper", "forcedecl", "checkspace"])
def test_equal_records_have_equal_hashes(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_records_holding_dicts_are_unhashable():
    for record in (MBValuation(K1), parse("p"), RelationCheck(False, {"atom_values": {}})):
        with pytest.raises(TypeError):
            hash(record)


class TestAlgebraSpecMaxAtoms:
    def test_is_not_compared_or_hashed(self):
        small, default = AlgebraSpec(("a", "b"), max_atoms=2), AlgebraSpec(("a", "b"))
        assert small.max_atoms == 2 and default.max_atoms == 16
        assert small == default and hash(small) == hash(default)

    def test_is_not_shown(self):
        assert repr(AlgebraSpec(("a", "b"), max_atoms=2)) == "AlgebraSpec(atoms=('a', 'b'))"

    def test_atoms_become_a_tuple(self):
        assert AlgebraSpec(["a", "b"]).atoms == ("a", "b")


REPRS = [
    (Force("f", Atom("p")), "Force(force='f', content=Atom(name='p'))"),
    (parse("[f](p & ~q) -> x | p", acts={"x"}).formula,
     "Implies(left=Force(force='f', content=And(left=Atom(name='p'), "
     "right=Not(body=Atom(name='q')))), right=Or(left=ActRef(name='x'), right=Atom(name='p')))"),
    (parse("act x = [f](x); x"),
     "ParseResult(definitions={'x': Force(force='f', content=ActRef(name='x'))}, "
     "formula=ActRef(name='x'))"),
    (ForceDecl("f"), "ForceDecl(name='f', point=None)"),
    (H, "HyperValue(on_true=Element(algebra=AlgebraSpec(atoms=('a',)), atoms=frozenset({'a'})), "
        "on_false=Element(algebra=AlgebraSpec(atoms=('a',)), atoms=frozenset()), "
        "exceptions=())"),
    (CheckSpace("m"),
     "CheckSpace(matrix='m', algebra=None, mode=<MBMode.POINTWISE: 'pointwise'>, "
     "admissible_only=True, budget=10000000, jobs=1)"),
    (is_tautology_m(parse_formula("p -> [think](p)")),
     "MTautologyResult(status='refuted', witness={'p': 0}, "
     "witness_value=<TruthValue4.HALF: 1>)"),
    (square_for_force("think", "p", CheckSpace("m")).laws.rows[0],
     "LawRow(label='p=0', excluded_middle='-1/2', contrariety='-1/2', "
     "excluded_middle_designated=False, contrariety_designated=False)"),
]


@pytest.mark.parametrize("record,text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_names_each_field(record, text):
    assert repr(record) == text


def test_an_opposition_report_does_not_show_its_hyper_report():
    report = square_for_force("f", "p", CheckSpace("mb", K1), generator=H)
    assert report.hyper is not None
    assert repr(report).startswith("OppositionReport(matrix='mb', force='f', atom='p', ")
    assert repr(report).endswith(f", laws={report.laws!r})")
    assert "hyper" not in repr(report)


CHECKS = [
    ("algebra-empty", lambda: AlgebraSpec(()), ValueError,
     "an algebra needs at least one atom"),
    ("algebra-too-large", lambda: AlgebraSpec(("a", "b", "c"), max_atoms=2), ValueError,
     "3 atoms exceed the configured maximum 2"),
    ("algebra-bad-name", lambda: AlgebraSpec(("a", "b c")), ValueError,
     "bad atom name: 'b c'"),
    ("algebra-non-string", lambda: AlgebraSpec(("a", 1)), ValueError, "bad atom name: 1"),
    ("algebra-duplicate", lambda: AlgebraSpec(("a", "a")), ValueError,
     "duplicate atom name: 'a'"),
    ("element-stray", lambda: Element(K1, {"z"}), ValueError,
     "atoms not declared in the algebra: ['z']"),
    ("hyper-algebras", lambda: HyperValue(A, K2.bottom()), ValueError,
     "on_true and on_false belong to different algebras"),
    ("hyper-exception-algebra", lambda: HyperValue(A, NONE, ((K2.top(), A),)), ValueError,
     "exception entries belong to a different algebra"),
    ("hyper-duplicate-point", lambda: HyperValue(A, NONE, ((A, NONE), (A, A))), ValueError,
     "duplicate exception point {a}"),
    ("force-name", lambda: ForceDecl("Think"), ValueError, "bad force name: 'Think'"),
    ("force-point", lambda: ForceDecl("think", "boast"), ValueError,
     "unknown point 'boast'; expected one of: "
     "assertive, commissive, directive, declarative, expressive"),
    ("valuation-atom", lambda: MBValuation(K1, atom_values={"p": K2.top()}), ValueError,
     "atom 'p' is valued outside the algebra"),
    ("valuation-act-algebra",
     lambda: MBValuation(K1, act_values={"[f](p)": HyperValue(K2.top(), K2.bottom())}),
     ValueError, "act '[f](p)' is valued outside the algebra"),
    ("valuation-generator", lambda: MBValuation(K1, generators={("f", "p"): standard(A)}),
     StandardAssignment, "generator ('f', 'p') must be nonstandard"),
    ("valuation-signature",
     lambda: MBValuation(K1, signatures={"f": HyperValue(A, A, ((NONE, NONE),))}),
     StandardAssignment, "signature 'f' must be nonstandard"),
    ("space-matrix", lambda: CheckSpace("x"), ValueError, "unknown matrix 'x'"),
    ("space-algebra", lambda: CheckSpace("mb"), ValueError,
     "the nonstandard matrix needs an algebra"),
]


@pytest.mark.parametrize("make,error,message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_each_constructor_check_keeps_its_type_and_message(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message


OWN_CONSTRUCTORS = {  # the records that check their input or are built once per node
    "AlgebraSpec", "Element", "HyperValue", "MBValuation", "CheckSpace", "ForceDecl",
    "Atom", "Not", "And", "Or", "Implies", "Force", "ActRef",
}
STORED = [record for record, _ in EXAMPLES if "__init__" not in type(record).__dict__]


def test_only_the_records_that_check_or_are_built_per_node_have_a_constructor():
    own = {type(record).__name__ for record, _ in EXAMPLES if "__init__" in type(record).__dict__}
    assert own == OWN_CONSTRUCTORS
    assert len(STORED) == 14


def _fields(record):
    return [getattr(record, name) for name in record.__slots__]


@pytest.mark.parametrize("record", STORED, ids=[type(r).__name__ for r in STORED])
def test_the_base_constructor_takes_fields_by_position_or_by_name(record):
    cls, names, values = type(record), record.__slots__, _fields(record)
    by_position, by_name = cls(*values), cls(**dict(zip(names, values)))
    assert by_position == by_name == record
    assert _fields(by_position) == _fields(by_name) == values
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record


@pytest.mark.parametrize("record", STORED, ids=[type(r).__name__ for r in STORED])
def test_the_base_constructor_refuses_a_missing_extra_repeated_or_unknown_field(record):
    cls, names, values = type(record), record.__slots__, _fields(record)
    with pytest.raises(TypeError, match="missing field"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="missing field"):
        cls()
    with pytest.raises(TypeError, match="fields but"):
        cls(*values, values[0])
    with pytest.raises(TypeError, match="by position and by name"):
        cls(*values[:1], **dict(zip(names, values)))
    with pytest.raises(TypeError, match="has no field 'other'"):
        cls(*values, other=1)
    with pytest.raises(TypeError, match="has no field 'other'"):
        cls(**dict(zip(names, values)), other=1)


def test_a_field_left_out_takes_its_default():
    assert RelationCheck(True).witness is None
    assert RelationCheck(holds=False) == RelationCheck(False, None)
    report = square_for_force("think", "p", CheckSpace("m"))
    fields = {name: getattr(report, name) for name in report.__slots__[:-1]}
    assert type(report)(**fields).hyper is None
    assert type(report)(*fields.values()) == report
