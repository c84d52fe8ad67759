import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from illoc.boolalg import (
    AlgebraMismatch,
    AlgebraSpec,
    algebra_from_json,
    algebra_to_json,
    complement,
    element_from_json,
    element_index,
    element_to_json,
    enumerate_elements,
    join,
    leq,
    meet,
)

K2 = AlgebraSpec(("a", "b"))
K3 = AlgebraSpec(("a", "b", "c"))


def el(spec, *names):
    return spec.element(names)


class TestSpecValidation:
    def test_atoms_must_be_unique(self):
        with pytest.raises(ValueError):
            AlgebraSpec(("a", "a"))

    def test_atoms_must_be_identifiers(self):
        with pytest.raises(ValueError):
            AlgebraSpec(("1bad",))

    def test_at_least_one_atom(self):
        with pytest.raises(ValueError):
            AlgebraSpec(())

    def test_max_atoms_enforced(self):
        with pytest.raises(ValueError):
            AlgebraSpec(tuple(f"a{i}" for i in range(17)))
        AlgebraSpec(tuple(f"a{i}" for i in range(17)), max_atoms=32)

    def test_element_atoms_must_be_declared(self):
        with pytest.raises(ValueError):
            K2.element(["z"])


class TestOperations:
    def test_meet_absorbs(self):
        assert meet(el(K2, "a"), el(K2, "a", "b")) == el(K2, "a")

    def test_meet_disjoint(self):
        assert meet(el(K2, "a"), el(K2, "b")) == K2.bottom()

    def test_meet_with_top_is_identity(self):
        for x in enumerate_elements(K2):
            assert meet(x, K2.top()) == x

    def test_join_examples(self):
        assert join(el(K2, "a"), el(K2, "b")) == K2.top()
        assert join(el(K2, "a"), el(K2, "a")) == el(K2, "a")
        for x in enumerate_elements(K2):
            assert join(x, K2.bottom()) == x

    def test_complement_examples(self):
        assert complement(K2.bottom()) == K2.top()
        assert complement(el(K2, "a")) == el(K2, "b")
        for x in enumerate_elements(K3):
            assert complement(complement(x)) == x

    def test_leq_examples(self):
        assert leq(K2.bottom(), el(K2, "a"))
        assert not leq(el(K2, "a"), el(K2, "b"))

    def test_leq_agrees_with_meet(self):
        for x, y in itertools.product(enumerate_elements(K2), repeat=2):
            assert leq(x, y) == (meet(x, y) == x)

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            meet(el(K2, "a"), el(K3, "a"))


class TestEnumeration:
    def test_k1(self):
        spec = AlgebraSpec(("a",))
        assert list(enumerate_elements(spec)) == [spec.bottom(), spec.top()]

    @pytest.mark.parametrize("spec,size", [(K2, 4), (K3, 8)])
    def test_sizes_and_no_duplicates(self, spec, size):
        everything = list(enumerate_elements(spec))
        assert len(everything) == size
        assert len(set(everything)) == size

    def test_index_matches_order(self):
        for i, x in enumerate(enumerate_elements(K3)):
            assert element_index(x) == i


class TestLatticeLaws:
    def test_laws_exhaustive_k2(self):
        xs = list(enumerate_elements(K2))
        for x, y in itertools.product(xs, repeat=2):
            assert meet(x, y) == meet(y, x)
            assert join(x, y) == join(y, x)
            assert join(x, meet(x, y)) == x
            assert meet(x, join(x, y)) == x
        for x, y, z in itertools.product(xs, repeat=3):
            assert meet(x, meet(y, z)) == meet(meet(x, y), z)
            assert join(x, join(y, z)) == join(join(x, y), z)
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))

    @pytest.mark.parametrize("spec", [AlgebraSpec(("a",)), K2, K3])
    def test_de_morgan(self, spec):
        for x, y in itertools.product(enumerate_elements(spec), repeat=2):
            assert complement(join(x, y)) == meet(complement(x), complement(y))

    def test_partial_order_bounds(self):
        xs = list(enumerate_elements(K2))
        for x in xs:
            assert leq(x, x)
            assert leq(K2.bottom(), x)
            assert leq(x, K2.top())
        for x, y in itertools.product(xs, repeat=2):
            if leq(x, y) and leq(y, x):
                assert x == y
        for x, y, z in itertools.product(xs, repeat=3):
            if leq(x, y) and leq(y, z):
                assert leq(x, z)


K4 = AlgebraSpec(("a", "b", "c", "d"))
subsets_k4 = st.frozensets(st.sampled_from(K4.atoms)).map(K4.element)


@given(subsets_k4, subsets_k4)
def test_de_morgan_sampled(x, y):
    assert complement(meet(x, y)) == join(complement(x), complement(y))


@given(subsets_k4, subsets_k4, subsets_k4)
def test_distributivity_sampled(x, y, z):
    assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))


class TestJson:
    def test_element_round_trip(self):
        x = el(K3, "c", "a")
        assert element_to_json(x) == ["a", "c"]
        assert element_from_json(K3, ["a", "c"]) == x

    def test_element_rejects_strings(self):
        with pytest.raises(ValueError):
            element_from_json(K2, "a")

    def test_algebra_round_trip(self):
        assert algebra_from_json(algebra_to_json(K3)) == K3

    def test_an_algebra_is_an_object(self):
        with pytest.raises(ValueError) as error:
            algebra_from_json([])
        assert str(error.value) == 'an algebra is {"atoms": [names]}'

    def test_rendering(self):
        assert str(el(K3, "c", "a")) == "{a,c}"
        assert str(K3.bottom()) == "{}"
