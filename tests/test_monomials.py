import json

import pytest
from hypothesis import given, strategies as st

from curvelab import (
    AFFINE_ORDER,
    EQUAL,
    GREATER,
    LESS,
    PROJECTIVE_ORDER,
    AmbientMismatchError,
    Monomial,
    MonomialOrder,
)
from curvelab.render import basis_json
from helpers import divides, lcm, m4, m5, monomials_of_degree_at_most, oracle_compare, times, weight

exponents4 = st.tuples(*[st.integers(0, 8)] * 4)


def mono4(*e) -> Monomial:
    return Monomial(m4(*e))


def mono5(*e) -> Monomial:
    return Monomial(m5(*e))


class TestMonomialBasics:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -1, 0, 0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Monomial((1, 2, 3))

    def test_render(self):
        assert str(mono4(3, 1)) == "x1^3*x2"
        assert str(mono4()) == "1"
        assert str(mono5(2, 0, 0, 1)) == "x0^2*x3"


class TestCompare:
    def test_degree_dominates(self):
        # x1^5 vs x3^2*x4, degrees 5 vs 3
        assert AFFINE_ORDER.compare(mono4(5, 0, 0, 0), mono4(0, 0, 2, 1)) == GREATER

    def test_tie_broken_at_least_variable(self):
        # degrees equal at 2: x1^2 beats x3*x4 because x4 appears on the right
        assert AFFINE_ORDER.compare(mono4(2, 0, 0, 0), mono4(0, 0, 1, 1)) == GREATER

    def test_documented_tie(self):
        # x2^2*x3 vs x1^2*x4: the side carrying x4 loses
        assert AFFINE_ORDER.compare(mono4(0, 2, 1, 0), mono4(2, 0, 0, 1)) == GREATER

    def test_equal_only_when_identical(self):
        assert AFFINE_ORDER.compare(mono4(1, 2, 0, 1), mono4(1, 2, 0, 1)) == EQUAL

    def test_variable_priority_chain(self):
        x1, x2, x3, x4 = mono4(1), mono4(0, 1), mono4(0, 0, 1), mono4(0, 0, 0, 1)
        assert AFFINE_ORDER.compare(x2, x1) == GREATER
        assert AFFINE_ORDER.compare(x1, x3) == GREATER
        assert AFFINE_ORDER.compare(x3, x4) == GREATER

    def test_extended_order_puts_x0_last(self):
        x0, x4 = mono5(1), mono5(0, 0, 0, 0, 1)
        assert PROJECTIVE_ORDER.compare(x4, x0) == GREATER

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            AFFINE_ORDER.compare(mono4(1), mono5(1))
        with pytest.raises(AmbientMismatchError):
            PROJECTIVE_ORDER.compare(mono4(1), mono4(1))

    def test_exhaustive_against_oracle(self):
        monos = monomials_of_degree_at_most(4, 3)
        for a in monos:
            for b in monos:
                expected = oracle_compare(a, b, AFFINE_ORDER.priority)
                assert AFFINE_ORDER.compare(Monomial(a), Monomial(b)) == expected

    def test_key_agrees_with_compare(self):
        monos = [Monomial(e) for e in monomials_of_degree_at_most(4, 3)]
        ranked = sorted(monos, key=AFFINE_ORDER.key)
        for lo, hi in zip(ranked, ranked[1:]):
            assert AFFINE_ORDER.compare(hi, lo) == GREATER

    @given(exponents4, exponents4)
    def test_totality_and_antisymmetry(self, a, b):
        c = AFFINE_ORDER.compare(Monomial(a), Monomial(b))
        assert c in (LESS, EQUAL, GREATER)
        assert (c == EQUAL) == (a == b)
        assert AFFINE_ORDER.compare(Monomial(b), Monomial(a)) == -c

    @given(exponents4, exponents4, exponents4)
    def test_multiplicative(self, a, b, w):
        assert AFFINE_ORDER.compare(Monomial(a), Monomial(b)) == AFFINE_ORDER.compare(
            Monomial(times(a, w)), Monomial(times(b, w))
        )

    @given(exponents4, exponents4)
    def test_degree_dominance(self, a, b):
        if sum(a) < sum(b):
            assert AFFINE_ORDER.compare(Monomial(a), Monomial(b)) == LESS


class TestDividesLcmWeight:
    """The reference oracles on exponent tuples (`tests/helpers.py`) that
    the packed primitives of `curvelab.groebner` are checked against."""

    def test_divides(self):
        assert divides(m4(2), m4(3, 0, 0, 1))
        assert not divides(m4(0, 1), m4(3, 0, 0, 1))

    def test_divides_case2_extra_lead(self):
        # x1^9 into x1^27*x3*x4^3 (the deep-shift extra binomial's trail)
        assert divides(m4(9), m4(27, 0, 1, 3))

    def test_lcm(self):
        assert lcm(m4(2, 0, 1), m4(1, 0, 0, 1)) == m4(2, 0, 1, 1)
        m = m4(1, 2, 3, 4)
        assert lcm(m, m) == m
        # x2^4 against x2*x3^2
        assert lcm(m4(0, 4), m4(0, 1, 2)) == m4(0, 4, 2)

    def test_weight(self):
        assert weight(m4(1, 1), (19, 29, 26, 43)) == 48
        assert weight(m4(), (19, 29, 26, 43)) == 0
        assert weight(m4(0, 21), (1191, 1239, 582, 2303)) == 26019

    def test_weight_length_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            weight(m4(1), (1, 2, 3))

    def test_mismatched_rings(self):
        with pytest.raises(AmbientMismatchError):
            divides(m4(1), m5(1))
        with pytest.raises(AmbientMismatchError):
            lcm(m4(1), m5(1))

    @given(exponents4, exponents4)
    def test_weight_is_linear(self, a, b):
        w = (19, 29, 26, 43)
        assert weight(times(a, b), w) == weight(a, w) + weight(b, w)

    @given(exponents4, exponents4)
    def test_lcm_properties(self, a, b):
        l = lcm(a, b)
        assert divides(a, l) and divides(b, l)
        assert l == lcm(b, a)


class TestOrderConstruction:
    def test_priority_must_be_permutation(self):
        with pytest.raises(ValueError):
            MonomialOrder((1, 2, 3))
        with pytest.raises(ValueError):
            MonomialOrder((1, 2, 3, 3))

    def test_json_round_trip(self):
        obj = json.loads(basis_json(AFFINE_ORDER, ()))["order"]
        assert obj == {"kind": "degrevlex", "priority": [2, 1, 3, 4]}
