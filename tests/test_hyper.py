import itertools

import pytest

from illoc.boolalg import AlgebraSpec, Element, complement, enumerate_elements, join, leq, meet
from illoc.hyper import (
    DECODE_CACHE_SIZE,
    HyperValue,
    _elements as decoded_elements,
    _values as decoded_values,
    OppositionCase,
    StandardInput,
    classify_opposition,
    content_neg,
    decode,
    decode_element,
    encode,
    enumerate_hypervalues,
    enumerate_nonstandard,
    equivalent,
    hleq,
    hneg,
    hyper,
    hyper_from_json,
    hyper_to_json,
    is_standard,
    normalize,
    oinf,
    osup,
    pinf,
    psup,
    square_report,
    standard,
)
from illoc.matrix_mb import MBMode, _nonstandard_codes, is_tautology_mb
from illoc.record import Record
from illoc.syntax import Atom, Force

K1 = AlgebraSpec(("a",))
K2 = AlgebraSpec(("a", "b"))


def el(spec, *names):
    return spec.element(names)


def values_with_exceptions(spec):
    """All normalized values plus every single-exception variant."""
    elements = list(enumerate_elements(spec))
    for h in enumerate_hypervalues(spec):
        yield h
        for at, value in itertools.product(elements, repeat=2):
            yield HyperValue(h.on_true, h.on_false, ((at, value),))


class TestNormalize:
    def test_drops_finite_exceptions(self):
        h = hyper(el(K2, "a"), el(K2, "b"), {el(K2, "a"): K2.bottom()})
        assert normalize(h) == hyper(el(K2, "a"), el(K2, "b"))

    def test_identity_on_normal_forms(self):
        h = hyper(el(K2, "a"), el(K2, "a"))
        assert normalize(h) is h

    def test_idempotent(self):
        for h in values_with_exceptions(K2):
            assert normalize(normalize(h)) == normalize(h)

    def test_duplicate_exception_points_rejected(self):
        with pytest.raises(ValueError):
            HyperValue(
                el(K2, "a"), el(K2, "b"),
                ((K2.bottom(), K2.bottom()), (K2.bottom(), K2.top())),
            )


class TestEquivalence:
    def test_exceptions_are_invisible(self):
        plain = hyper(el(K2, "a"), el(K2, "b"))
        patched = hyper(el(K2, "a"), el(K2, "b"), {K2.bottom(): K2.top()})
        assert equivalent(plain, patched)

    def test_distinct_normal_forms_differ(self):
        assert not equivalent(hyper(el(K2, "a"), el(K2, "b")),
                              hyper(el(K2, "b"), el(K2, "a")))

    def test_equivalence_relation_k1(self):
        values = list(values_with_exceptions(K1))
        for h in values:
            assert equivalent(h, h)
        for h1, h2 in itertools.product(values, repeat=2):
            assert equivalent(h1, h2) == equivalent(h2, h1)
        # transitivity via canonical representatives
        for h1, h2, h3 in itertools.product(values[:12], repeat=3):
            if equivalent(h1, h2) and equivalent(h2, h3):
                assert equivalent(h1, h3)

    def test_algebra_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(standard(K1.top()), standard(K2.top()))


class TestStandard:
    def test_extremes(self):
        assert standard(K2.bottom()) == hyper(K2.bottom(), K2.bottom())
        assert str(standard(K2.bottom())) == "*0"
        assert str(standard(K2.top())) == "*1"
        assert is_standard(standard(el(K2, "a")))

    def test_embedding_preserves_order(self):
        for c1, c2 in itertools.product(enumerate_elements(K2), repeat=2):
            assert leq(c1, c2) == hleq(standard(c1), standard(c2))

    def test_embedding_injective(self):
        images = [standard(c) for c in enumerate_elements(K2)]
        assert len(set(images)) == len(images)


class TestPointwiseOperations:
    def test_case2_meet_reaches_bottom(self):
        h = hyper(el(K2, "a"), K2.bottom())
        assert pinf(h, content_neg(h)) == standard(K2.bottom())

    def test_case3_join_reaches_top(self):
        h = hyper(K2.top(), el(K2, "b"))
        assert psup(h, content_neg(h)) == standard(K2.top())

    def test_hneg_componentwise(self):
        assert hneg(hyper(el(K2, "a"), el(K2, "b"))) == hyper(el(K2, "b"), el(K2, "a"))

    def test_isomorphic_to_base_on_standards(self):
        for c1, c2 in itertools.product(enumerate_elements(K2), repeat=2):
            assert standard(meet(c1, c2)) == pinf(standard(c1), standard(c2))
            assert standard(join(c1, c2)) == psup(standard(c1), standard(c2))
        for c in enumerate_elements(K2):
            assert standard(complement(c)) == hneg(standard(c))

    def test_normalize_is_congruence_k1_exhaustive(self):
        values = list(values_with_exceptions(K1))
        for h1, h2 in itertools.product(values, repeat=2):
            for op in (pinf, psup):
                assert op(normalize(h1), normalize(h2)) == normalize(op(h1, h2))
        for h in values:
            assert hneg(normalize(h)) == normalize(hneg(h))
            assert content_neg(normalize(h)) == normalize(content_neg(h))

    def test_normalize_is_congruence_k2_sampled(self):
        values = [
            hyper(el(K2, "a"), el(K2, "b"), {el(K2, "a"): K2.bottom()}),
            hyper(K2.top(), K2.bottom(), {K2.bottom(): K2.top()}),
            hyper(el(K2, "b"), el(K2, "b"), {el(K2, "a"): el(K2, "a")}),
            standard(el(K2, "a")),
        ]
        for h1, h2 in itertools.product(values, repeat=2):
            for op in (pinf, psup):
                assert op(normalize(h1), normalize(h2)) == normalize(op(h1, h2))


class TestContentNegation:
    def test_swaps_components(self):
        assert content_neg(hyper(el(K2, "a"), K2.top())) == hyper(K2.top(), el(K2, "a"))

    def test_involution(self):
        for h in enumerate_hypervalues(K2):
            assert content_neg(content_neg(h)) == h

    def test_fixes_standards(self):
        for c in enumerate_elements(K2):
            assert content_neg(standard(c)) == standard(c)

    def test_exception_points_move_to_complements(self):
        h = hyper(el(K2, "a"), el(K2, "b"), {el(K2, "a"): K2.bottom()})
        swapped = content_neg(h)
        assert swapped.exceptions == ((el(K2, "b"), K2.bottom()),)

    def test_distributes_and_commutes(self):
        values = list(enumerate_hypervalues(K2))
        for h1, h2 in itertools.product(values, repeat=2):
            assert content_neg(pinf(h1, h2)) == pinf(content_neg(h1), content_neg(h2))
            assert content_neg(psup(h1, h2)) == psup(content_neg(h1), content_neg(h2))
        for h in values:
            assert content_neg(hneg(h)) == hneg(content_neg(h))


class TestStipulatedOrder:
    def test_every_standard_dominates_every_nonstandard(self):
        h = hyper(el(K2, "a"), el(K2, "b"))
        assert hleq(h, standard(K2.bottom()))
        assert not hleq(standard(K2.bottom()), h)

    def test_componentwise_between_nonstandard(self):
        assert hleq(hyper(K2.bottom(), el(K2, "a")), hyper(el(K2, "a"), K2.top()))
        assert not hleq(hyper(el(K2, "a"), K2.bottom()), hyper(K2.bottom(), el(K2, "a")))

    @pytest.mark.parametrize("spec", [K1, K2])
    def test_partial_order(self, spec):
        values = list(enumerate_hypervalues(spec))
        for h in values:
            assert hleq(h, h)
        for h1, h2 in itertools.product(values, repeat=2):
            if hleq(h1, h2) and hleq(h2, h1):
                assert h1 == h2
        for h1, h2, h3 in itertools.product(values, repeat=3):
            if hleq(h1, h2) and hleq(h2, h3):
                assert hleq(h1, h3)

    def test_top_is_global_maximum(self):
        for h in enumerate_hypervalues(K2):
            assert hleq(h, standard(K2.top()))

    def test_standard_bottom_is_not_global_minimum(self):
        witness = hyper(el(K2, "a"), el(K2, "b"))
        assert hleq(witness, standard(K2.bottom()))
        assert witness != standard(K2.bottom())


class TestOrderJoinMeet:
    def test_mixed_resolves_to_standard_for_join(self):
        assert osup(hyper(el(K2, "a"), el(K2, "b")), standard(K2.bottom())) == standard(K2.bottom())

    def test_mixed_resolves_to_nonstandard_for_meet(self):
        h = hyper(el(K2, "a"), el(K2, "b"))
        assert oinf(h, standard(K2.bottom())) == h

    def test_nonstandard_join_may_collapse(self):
        assert osup(hyper(el(K2, "a"), el(K2, "b")),
                    hyper(el(K2, "b"), el(K2, "a"))) == standard(K2.top())

    def test_standard_pairs_use_base_algebra(self):
        assert osup(standard(el(K2, "a")), standard(el(K2, "b"))) == standard(K2.top())
        assert oinf(standard(el(K2, "a")), standard(el(K2, "b"))) == standard(K2.bottom())


class TestOppositionCases:
    def test_disjoint_components(self):
        result = classify_opposition(hyper(el(K2, "a"), K2.bottom()))
        assert result.cases == frozenset({OppositionCase.DISJOINT})
        assert result.inf_with_content_neg == standard(K2.bottom())
        assert hleq(result.sup_with_content_neg, standard(K2.top()))

    def test_exhaustive_components(self):
        result = classify_opposition(hyper(K2.top(), el(K2, "b")))
        assert result.cases == frozenset({OppositionCase.EXHAUSTIVE})
        assert result.sup_with_content_neg == standard(K2.top())

    def test_incomparable_needs_three_atoms(self):
        spec = AlgebraSpec(("a", "b", "c"))
        result = classify_opposition(hyper(el(spec, "a"), el(spec, "a", "b")))
        assert result.cases == frozenset({OppositionCase.INCOMPARABLE})
        neg = hneg(hyper(el(spec, "a"), el(spec, "a", "b")))
        swap = content_neg(hyper(el(spec, "a"), el(spec, "a", "b")))
        assert not hleq(swap, neg) and not hleq(neg, swap)

    def test_every_nonstandard_value_has_a_case(self):
        for h in enumerate_nonstandard(K2):
            result = classify_opposition(h)
            assert result.cases
            expected_inf = standard(meet(h.on_true, h.on_false))
            expected_sup = standard(join(h.on_true, h.on_false))
            assert result.inf_with_content_neg == expected_inf
            assert result.sup_with_content_neg == expected_sup
            if OppositionCase.DISJOINT in result.cases:
                assert result.inf_with_content_neg == standard(K2.bottom())
            if OppositionCase.EXHAUSTIVE in result.cases:
                assert result.sup_with_content_neg == standard(K2.top())

    def test_both_cases_exactly_when_components_complement(self):
        both = frozenset({OppositionCase.DISJOINT, OppositionCase.EXHAUSTIVE})
        for h in enumerate_nonstandard(K2):
            expected = h.on_false == complement(h.on_true)
            assert (classify_opposition(h).cases == both) == expected

    def test_rejects_standard_values(self):
        with pytest.raises(StandardInput):
            classify_opposition(standard(el(K2, "a")))


class TestSquare:
    def test_holds_with_all_relations(self):
        report = square_report(hyper(el(K2, "a"), K2.bottom()))
        assert report.holds
        assert report.contrary and report.contradictory and report.subcontrary
        assert report.subaltern_left and report.subaltern_right

    def test_fails_on_overlapping_components(self):
        assert not square_report(hyper(K2.top(), el(K2, "b"))).holds

    def test_holds_iff_all_four_relations(self):
        for h in enumerate_nonstandard(K2):
            report = square_report(h)
            assert report.contradictory  # complement laws, unconditionally
            conjunction = (
                report.contrary and report.subcontrary
                and report.subaltern_left and report.subaltern_right
            )
            assert report.holds == conjunction
            assert report.holds == (meet(h.on_true, h.on_false) == K2.bottom())

    def test_rejects_standard_values(self):
        with pytest.raises(StandardInput):
            square_report(standard(K2.top()))


class TestJson:
    def test_standard_abbreviation(self):
        assert hyper_to_json(standard(el(K2, "a"))) == {"standard": ["a"]}
        assert hyper_from_json(K2, {"standard": ["a"]}) == standard(el(K2, "a"))

    def test_full_form_round_trip(self):
        h = hyper(el(K2, "a"), el(K2, "b"), {el(K2, "a"): K2.bottom()})
        data = hyper_to_json(h)
        assert data["on_true"] == ["a"] and data["on_false"] == ["b"]
        assert hyper_from_json(K2, data) == h

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            hyper_from_json(K2, {"on_true": ["a"]})

    @pytest.mark.parametrize("data,message", [
        (["a"], "a hypervalue is a JSON object"),
        ({"on_true": [], "on_false": [], "exceptions": 3},
         'exceptions are a list of {"at": element, "value": element}'),
    ], ids=["list", "exceptions-int"])
    def test_malformed_data_is_named(self, data, message):
        with pytest.raises(ValueError) as error:
            hyper_from_json(K2, data)
        assert str(error.value) == message

    def test_an_exception_point_is_printed(self):
        h = HyperValue(el(K1, "a"), K1.bottom(), ((K1.bottom(), el(K1, "a")),))
        assert str(h) == "<{a},{} except {}->{a}>"


class TestDecodeTables:
    """`decode`/`decode_element` keep the values and elements decoded most recently."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_code_decodes_as_a_fresh_construction(self, k):
        spec = AlgebraSpec(("a", "b", "c", "d")[:k])

        def fresh(code):
            return Element(spec, {atom for i, atom in enumerate(spec.atoms) if code >> i & 1})

        for code in range(1 << k):
            assert decode_element(spec, code) == fresh(code)
            assert decode_element(spec, code) is decode_element(spec, code)
        low = (1 << k) - 1
        for code in range(1 << 2 * k):
            value = decode(spec, code)
            assert value == HyperValue(fresh(code & low), fresh(code >> k))
            assert value.exceptions == () and encode(value) == code
            assert decode(spec, code) is value

    def test_an_equal_algebra_reads_the_same_table(self):
        again = AlgebraSpec(("a", "b"), max_atoms=5)
        assert decode(again, 6) is decode(K2, 6) and decode(again, 6).algebra == again

    def test_many_codes_of_one_algebra_keep_the_tables_bounded(self):
        spec = AlgebraSpec(tuple(f"a{i}" for i in range(8)))
        assert DECODE_CACHE_SIZE == 4096
        for code in range(0, 1 << 16, 5):  # 13,108 distinct values, every element
            assert encode(decode(spec, code)) == code
        assert len(decoded_values) == DECODE_CACHE_SIZE
        assert len(decoded_elements) <= DECODE_CACHE_SIZE

    def test_scans_over_many_algebras_keep_the_tables_bounded(self):
        for i in range(20):
            spec = AlgebraSpec(tuple(f"atom{i}_{j}" for j in range(4)))
            result = is_tautology_mb(Force("f", Atom("p")), spec, MBMode.POINTWISE)
            assert result.status == "refuted"
        assert len(decoded_values) <= DECODE_CACHE_SIZE
        assert len(decoded_elements) <= DECODE_CACHE_SIZE
        assert _nonstandard_codes.cache_info().currsize <= 16

    def test_a_warm_decode_hashes_and_compares_no_algebra(self, monkeypatch):
        again = AlgebraSpec(("a", "b"))  # equal to K2, built apart
        warm = [(decode(K2, code), decode_element(K2, code & 3)) for code in range(16)]
        calls = []

        def counted(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)
            return wrapper

        monkeypatch.setattr(AlgebraSpec, "__hash__", counted("__hash__", Record.__hash__))
        monkeypatch.setattr(AlgebraSpec, "__eq__", counted("__eq__", Record.__eq__))
        assert hash(again) == hash(K2) and calls == ["__hash__", "__hash__"]  # the counters count
        calls.clear()
        for spec in (K2, again):
            decoded = [(decode(spec, code), decode_element(spec, code & 3)) for code in range(16)]
            assert all(v is w and e is f for (v, e), (w, f) in zip(decoded, warm))
        assert calls == []
