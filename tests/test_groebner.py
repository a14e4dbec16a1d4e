import random

import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    AFFINE_ORDER,
    Binomial,
    BinomialBasis,
    BresinskyData,
    MonomialOrder,
    NotGroebnerError,
    NotReducedError,
    StepBoundExceeded,
    buchberger,
    closed_form_basis,
    generators,
    initial_generators,
    is_groebner,
    normal_form,
    reduce_basis,
    s_binomial,
    toric_membership,
)
from curvelab import groebner
from curvelab.groebner import is_interreduced
from helpers import (
    bino,
    m4,
    pair_set,
    plain_buchberger,
    sample_applicable,
    sample_long_basis,
)


class TestBinomial:
    def test_zero_is_not_representable(self):
        with pytest.raises(ValueError):
            Binomial(m4(1), m4(1))

    def test_from_pair_orients(self):
        b = Binomial.from_pair(m4(0, 0, 2, 1), m4(5), AFFINE_ORDER)
        assert b.lead == m4(5) and b.trail == m4(0, 0, 2, 1)
        assert Binomial.from_pair(m4(1), m4(1), AFFINE_ORDER) is None

    def test_str(self):
        assert str(bino(m4(5), m4(0, 0, 2, 1))) == "x1^5 - x3^2*x4"

    def test_basis_rejects_unoriented_elements(self):
        wrong = Binomial(m4(0, 0, 2, 1), m4(5))  # trail has larger degree
        with pytest.raises(ValueError):
            BinomialBasis((wrong,), AFFINE_ORDER)


class TestSBinomial:
    def test_first_and_fourth_generator(self, basic_data):
        f = generators(basic_data, 0)
        s = s_binomial(f[0], f[3], AFFINE_ORDER)
        # x1^2*x4^2 against x2*x3^2*x4; the x2-bearing side leads
        assert s.lead == m4(0, 1, 2, 1)
        assert s.trail == m4(2, 0, 0, 2)

    def test_self_pair_is_zero(self, basic_data):
        f = generators(basic_data, 0)
        assert s_binomial(f[0], f[0], AFFINE_ORDER) is None

    def test_second_and_third_generator(self, basic_data):
        f = generators(basic_data, 0)
        s = s_binomial(f[1], f[2], AFFINE_ORDER)
        # x1^2*x2^3*x4 against x2^4*x3^2
        assert {s.lead.exponents, s.trail.exponents} == {(2, 3, 0, 1), (0, 4, 2, 0)}

    def test_weight_preserved(self, basic_data):
        degrees = (19, 29, 26, 43)
        f = generators(basic_data, 0)
        for i in range(5):
            for j in range(i + 1, 5):
                s = s_binomial(f[i], f[j], AFFINE_ORDER)
                if s is not None:
                    assert toric_membership(s, degrees)


class TestNormalForm:
    def test_case1_s_pair_reduces_to_zero(self, noncm_a2):
        f = generators(noncm_a2, 0)
        basis = BinomialBasis(f, AFFINE_ORDER, is_groebner_verified=True)
        s = s_binomial(f[1], f[3], AFFINE_ORDER)
        assert normal_form(s, basis) is None

    def test_self_reduction(self, noncm_a2):
        g = generators(noncm_a2, 0)[0]
        basis = BinomialBasis((g,), AFFINE_ORDER, is_groebner_verified=True)
        assert normal_form(g, basis) is None

    def test_extra_binomial_is_member(self, big_data):
        # x2^21 - x1^2*x3^5*x4^9 lies in the ideal: equal weights 26019
        degrees = (1191, 1239, 582, 2303)
        r = bino(m4(0, 21), m4(2, 0, 5, 9))
        assert toric_membership(r, degrees)
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        assert normal_form(r, gb) is None

    def test_nonmember_has_nonzero_normal_form(self, big_data):
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        stranger = bino(m4(1), m4(0, 1))
        assert normal_form(stranger, gb) is not None

    def test_step_bound_enforced(self, big_data):
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        r_squared = bino(m4(0, 42), m4(4, 0, 10, 18))
        assert normal_form(r_squared, gb) is None
        with pytest.raises(StepBoundExceeded):
            normal_form(r_squared, gb, step_bound=1)

    def test_rewrite_steps_preserve_weights(self, big_data):
        # every reduction step replaces a monomial by one of equal weight,
        # so a nonzero normal form keeps the multiset of side weights
        degrees = (1191, 1239, 582, 2303)
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        rng = random.Random(13)
        for _ in range(40):
            a = m4(*(rng.randint(0, 6) for _ in range(4)))
            b = m4(*(rng.randint(0, 6) for _ in range(4)))
            if a.exponents == b.exponents:
                continue
            f = bino(a, b)
            h = normal_form(f, gb)
            before = sorted((a.weight(degrees), b.weight(degrees)))
            if h is None:
                assert before[0] == before[1]
            else:
                after = sorted((h.lead.weight(degrees), h.trail.weight(degrees)))
                assert after == before


class TestBuchberger:
    def test_single_generator(self):
        g = bino(m4(0, 2), m4(1, 0, 1))
        out = buchberger([g], AFFINE_ORDER)
        assert out.elements == (g,)

    def test_case1_fixture_already_reduced(self, noncm_a2):
        gens = generators(noncm_a2, 0)
        red = reduce_basis(buchberger(gens, AFFINE_ORDER))
        assert pair_set(red) == pair_set(gens)
        assert red.is_reduced

    def test_case2_fixture_matches_closed_form(self, big_data):
        oracle = reduce_basis(buchberger(generators(big_data, 0), AFFINE_ORDER))
        closed = closed_form_basis(big_data, 0)
        assert reduce_basis(closed.basis).elements == oracle.elements

    def test_non_acm_fixture_grows_past_closed_form(self, basic_data):
        # the case conditions fail here, so the five generators plus the
        # single extra binomial are NOT a Groebner basis and the engine
        # must find more
        red = reduce_basis(buchberger(generators(basic_data, 0), AFFINE_ORDER))
        assert is_groebner(red).ok
        assert len(red) == 8
        assert pair_set(generators(basic_data, 0)) <= pair_set(red)
        assert frozenset(((0, 5, 0, 0), (4, 0, 1, 1))) in pair_set(red)
        for b in red:
            assert toric_membership(b, (19, 29, 26, 43))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            buchberger([], AFFINE_ORDER)

    def test_output_passes_verifier(self, basic_data, big_data, noncm_a2):
        for data in (basic_data, big_data, noncm_a2):
            out = buchberger(generators(data, 1), AFFINE_ORDER)
            assert is_groebner(out).ok

    @settings(deadline=None, max_examples=15)
    @given(st.randoms(use_true_random=False))
    def test_reduced_basis_invariant_under_generator_order(self, rng):
        data = BresinskyData(d21=2, d41=3, d32=3, d42=1, d13=2, d23=3, d14=1, d34=1)
        gens = list(generators(data, 0))
        expected = reduce_basis(buchberger(gens, AFFINE_ORDER)).elements
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduce_basis(buchberger(shuffled, AFFINE_ORDER)).elements == expected


class TestPairCriteria:
    """`buchberger` skips the S-pairs the chain criterion proves redundant;
    `plain_buchberger` normal-forms every pair with non-coprime leads."""

    #: A member shaped like the long-basis bench workload (case 2, not ACM).
    LONG = (BresinskyData(d21=2, d41=5, d32=1, d42=1, d13=32, d23=1, d14=1, d34=1), 10)

    def test_same_reduced_basis_as_all_pairs_oracle(self):
        members = sample_applicable(41, 94, max_row=10, max_m=10) + sample_long_basis(3, 6)
        for data, m in members:
            gens = generators(data, m)
            out = buchberger(gens, AFFINE_ORDER)
            assert is_groebner(out).ok, (data, m)
            expected = reduce_basis(plain_buchberger(gens, AFFINE_ORDER)).elements
            assert reduce_basis(out).elements == expected, (data, m)

    @staticmethod
    def _s_binomial_calls(monkeypatch, run) -> int:
        calls = []
        real = groebner.s_binomial

        def counting(f, g, order):
            calls.append(1)
            return real(f, g, order)

        monkeypatch.setattr(groebner, "s_binomial", counting)
        run()
        return len(calls)

    def test_criterion_skips_pairs(self, monkeypatch, basic_data):
        for data, m in ((basic_data, 0), self.LONG):
            gens = generators(data, m)
            fast = self._s_binomial_calls(monkeypatch, lambda: buchberger(gens, AFFINE_ORDER))
            plain = self._s_binomial_calls(
                monkeypatch, lambda: plain_buchberger(gens, AFFINE_ORDER)
            )
            assert 0 < fast < plain, (data, m, fast, plain)


class TestReduceBasis:
    def test_drops_multiple(self):
        f = bino(m4(0, 1), m4(1))  # x2 - x1
        xf = bino(m4(0, 1, 1), m4(1, 0, 1))  # x3*(x2 - x1)
        basis = BinomialBasis((f, xf), AFFINE_ORDER, is_groebner_verified=True)
        red = reduce_basis(basis)
        assert red.elements == (f,)

    def test_fixed_point_on_reduced_input(self, noncm_a2):
        closed = closed_form_basis(noncm_a2, 0).basis
        assert reduce_basis(closed).elements == closed.elements

    def test_rejects_non_groebner_input(self, big_data):
        f = generators(big_data, 0)
        partial = BinomialBasis((f[1], f[2]), AFFINE_ORDER)
        with pytest.raises(NotGroebnerError):
            reduce_basis(partial)

    def test_uniqueness_across_presentations(self, big_data):
        # same ideal, two generating sets: five generators vs closed form
        a = reduce_basis(buchberger(generators(big_data, 0), AFFINE_ORDER))
        b = reduce_basis(closed_form_basis(big_data, 0).basis)
        assert a.elements == b.elements


class TestIsGroebner:
    def test_closed_form_case2_passes(self, big_data):
        assert is_groebner(closed_form_basis(big_data, 0).basis).ok

    def test_chain_ideal_depends_on_priority(self):
        x1, x2, x3 = m4(1), m4(0, 1), m4(0, 0, 1)
        lex_first = MonomialOrder((1, 2, 3, 4))
        f = Binomial.from_pair(x1, x2, lex_first)
        g = Binomial.from_pair(x2, x3, lex_first)
        assert is_groebner(BinomialBasis((f, g), lex_first)).ok

        # with x2 greatest both leads are x2 and the S-binomial x1 - x3
        # is irreducible
        f2 = Binomial.from_pair(x1, x2, AFFINE_ORDER)
        g2 = Binomial.from_pair(x2, x3, AFFINE_ORDER)
        cert = is_groebner(BinomialBasis((f2, g2), AFFINE_ORDER))
        assert not cert.ok
        assert [(i, j) for i, j, _ in cert.failures] == [(0, 1)]
        remainder = cert.failures[0][2]
        assert {remainder.lead, remainder.trail} == {x1, x3}

    def test_partial_generator_set_fails(self, big_data):
        f = generators(big_data, 0)
        cert = is_groebner(BinomialBasis((f[1], f[2]), AFFINE_ORDER))
        assert not cert.ok


class TestIsInterreduced:
    def test_reduced_basis_passes(self, basic_data):
        out = buchberger(generators(basic_data, 0), AFFINE_ORDER)
        assert is_interreduced(reduce_basis(out).elements)

    def test_lead_dividing_a_trail_fails(self):
        assert not is_interreduced((bino(m4(3), m4(0, 2)), bino(m4(0, 2), m4(0, 0, 1))))

    def test_lead_dividing_a_lead_fails(self):
        assert not is_interreduced((bino(m4(2), m4(0, 0, 1)), bino(m4(3), m4(0, 1, 1))))


class TestInitialGenerators:
    def test_case1_leads(self, noncm_a2):
        red = reduce_basis(buchberger(generators(noncm_a2, 0), AFFINE_ORDER))
        leads = set(initial_generators(red))
        assert leads == {m4(2), m4(0, 3), m4(0, 0, 2), m4(1, 2), m4(0, 2, 1)}

    def test_single_element(self):
        g = bino(m4(0, 2), m4(1, 0, 1))
        basis = reduce_basis(buchberger([g], AFFINE_ORDER))
        assert initial_generators(basis) == (g.lead,)

    def test_non_acm_lead_carries_x4(self, basic_data):
        red = reduce_basis(buchberger(generators(basic_data, 0), AFFINE_ORDER))
        assert m4(4, 0, 1, 1) in initial_generators(red)

    def test_requires_reduced(self, big_data):
        out = buchberger(generators(big_data, 0), AFFINE_ORDER)
        with pytest.raises(NotReducedError):
            initial_generators(out)


class TestSerialization:
    def test_basis_json_round_trip(self, noncm_a2):
        basis = closed_form_basis(noncm_a2, 0).basis
        doc = basis.to_json()
        back = BinomialBasis.from_json(doc)
        assert back.elements == basis.sorted_elements()
        assert back.order == AFFINE_ORDER

    def test_canonical_element_order(self, big_data):
        basis = closed_form_basis(big_data, 0).basis
        keys = [AFFINE_ORDER.key(b.lead) for b in basis.sorted_elements()]
        assert keys == sorted(keys)


def test_buchberger_agrees_on_random_member_sets(big_data, basic_data):
    # a randomly shuffled mix of generators and verified members generates
    # the same ideal, so the reduced basis must not change
    rng = random.Random(7)
    for data in (big_data, basic_data):
        gens = list(generators(data, 2))
        expected = reduce_basis(buchberger(gens, AFFINE_ORDER)).elements
        extra = s_binomial(gens[0], gens[3], AFFINE_ORDER)
        pool = gens + [extra]
        rng.shuffle(pool)
        assert reduce_basis(buchberger(pool, AFFINE_ORDER)).elements == expected
