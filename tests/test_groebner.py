import random

import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    Binomial,
    BinomialBasis,
    BresinskyData,
    Monomial,
    MonomialOrder,
    NotGroebnerError,
    StepBoundExceeded,
    buchberger,
    closed_form_basis,
    generators,
    homogenize,
    initial_generators,
    is_groebner,
    member_degrees,
    normal_form,
    reduce_basis,
    s_binomial,
)
from curvelab import groebner
from curvelab.groebner import MAX_DEGREE, Packing, is_interreduced
from helpers import (
    bino,
    m4,
    pair_set,
    plain_buchberger,
    sample_applicable,
    sample_long_basis,
    toric_membership,
    tuple_normal_form,
)

#: The two working orders and one non-default priority in each ring.
ORDERS = (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    MonomialOrder((4, 3, 1, 2)),
    MonomialOrder((1, 0, 4, 2, 3)),
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

    def test_matches_tuple_oracle_on_arbitrary_sets(self):
        # against a set that is not a Groebner basis the strategy result
        # is contractual: smallest-index reducer, lead before trail, and
        # the same step count
        rng = random.Random(29)
        for k in range(600):
            order = ORDERS[k % len(ORDERS)]

            def mono():
                return Monomial(tuple(rng.randint(0, 5) for _ in range(order.nvars)))

            def small():
                return Monomial(tuple(rng.randint(0, 2) for _ in range(order.nvars)))

            elements = []
            while len(elements) < rng.randint(1, 5):
                b = Binomial.from_pair(mono(), mono(), order)
                if b is not None:
                    elements.append(b)
            # sides that some lead divides, often a multiple of an element
            g = rng.choice(elements)
            c = small()
            f = rng.choice((
                Binomial.from_pair(g.lead * c, g.trail * c, order),
                Binomial.from_pair(g.lead * c, rng.choice(elements).trail * small(), order),
                Binomial.from_pair(g.lead * c, mono(), order),
                Binomial.from_pair(mono(), mono(), order),
            ))
            if f is None:
                continue
            bound = rng.choice((2, 8, groebner.DEFAULT_STEP_BOUND))
            basis = BinomialBasis(tuple(elements), order)
            try:
                expected = tuple_normal_form(f, elements, order, bound)
            except StepBoundExceeded as exc:
                with pytest.raises(StepBoundExceeded) as info:
                    normal_form(f, basis, bound)
                assert str(info.value) == str(exc)
                continue
            assert normal_form(f, basis, bound) == expected

    def test_basis_is_packed_once(self, monkeypatch, big_data):
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        f = bino(m4(0, 21), m4(2, 0, 5, 9))
        packed = []
        real = Packing.pack
        monkeypatch.setattr(Packing, "pack", lambda self, m: packed.append(m) or real(self, m))
        first = normal_form(f, gb)
        assert len(packed) == 2 * len(gb) + 2
        assert normal_form(f, gb) == first
        assert len(packed) == 2 * len(gb) + 4

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


class TestPacking:
    """The packed primitives the engine runs (`_first_reducer`, `_lcms`,
    `_degree`, `_key`, and the rewrite inside `normal_form`) against
    `Monomial`, `MonomialOrder` and `Binomial.rewrite`, on seeded random
    exponent vectors."""

    @staticmethod
    def _vectors(rng, n, count):
        """Small exponents; every third vector has degree MAX_DEGREE."""
        out = []
        for k in range(count):
            e = [rng.randint(0, 7) for _ in range(n)]
            if k % 3 == 0:
                i = rng.randrange(n)
                e[i] = MAX_DEGREE - (sum(e) - e[i])
            out.append(Monomial(tuple(e)))
        return out

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_agrees_with_tuple_operations(self, order):
        pk = Packing(order)
        guards, shift = pk.guards, pk.shift
        rng = random.Random(sum(order.priority) * 31 + order.nvars)
        monos = self._vectors(rng, order.nvars, 60)
        packed = [pk.pack(a) for a in monos]
        for a, pa in zip(monos, packed):
            assert pk.unpack(pa) == a
            assert groebner._degree(pa) == a.degree()
            first = next((k for k, d in enumerate(monos) if d.divides(a)), -1)
            assert groebner._first_reducer(pa, packed, guards) == first
            lcms = groebner._lcms(packed, pa, guards)
            for b, pb, pl in zip(monos, packed, lcms):
                assert (groebner._first_reducer(pb, [pa], guards) == 0) == a.divides(b)
                c = order.compare(a, b)
                ka, kb = groebner._key(pa, shift), groebner._key(pb, shift)
                assert (ka > kb) - (ka < kb) == c
                lcm = a.lcm(b)
                assert pk.unpack(pl) == lcm
                if lcm.degree() > MAX_DEGREE:
                    with pytest.raises(OverflowError):
                        groebner._degree(pl)
                else:
                    assert groebner._degree(pl) == lcm.degree()
                    assert (pl == pa + pb) == (lcm == a * b)
        by_key = sorted(monos, key=lambda m: groebner._key(pk.pack(m), shift))
        assert by_key == sorted(monos, key=order.key)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_rewrites_agree_with_binomial_rewrite_at_the_limit(self, order):
        # f = lead*c - t with c a power of a variable that neither side of
        # the reducer contains: one packed rewrite turns the lead into
        # trail*c, of degree up to MAX_DEGREE, which that reducer no longer
        # divides; the oracle rewrites tuples through `Binomial.rewrite`
        rng = random.Random(order.nvars * 7 + order.priority[0])
        n = order.nvars
        checked = 0
        for k in range(120):
            v = rng.randrange(n)
            sides = [[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
            for e in sides:
                e[v] = 0
            b = Binomial.from_pair(Monomial(tuple(sides[0])), Monomial(tuple(sides[1])), order)
            if b is None:
                continue
            c = [0] * n
            c[v] = MAX_DEGREE - b.lead.degree() - k % 3
            m = b.lead * Monomial(tuple(c))
            f = Binomial.from_pair(m, Monomial(tuple(rng.randint(0, 3) for _ in range(n))), order)
            expected = tuple_normal_form(f, [b], order)
            assert normal_form(f, BinomialBasis((b,), order)) == expected
            assert expected.lead == b.rewrite(m)
            checked += 1
        assert checked > 60

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_least_priority_variable_fills_the_top_field(self, order):
        pk = Packing(order)
        least = order.priority[-1]
        x = Monomial.from_powers({least: 1}, order.nvars)
        assert pk.pack(x) == 1 << (pk.shift - groebner.FIELD_BITS)

    def test_overflow_guard_raises_at_the_limit(self):
        for order in ORDERS:
            pk = Packing(order)
            n = order.nvars
            top = Monomial((MAX_DEGREE,) + (0,) * (n - 1))
            assert groebner._degree(pk.pack(top)) == MAX_DEGREE
            with pytest.raises(OverflowError):
                pk.pack(Monomial((MAX_DEGREE + 1,) + (0,) * (n - 1)))
            with pytest.raises(OverflowError):
                pk.pack(Monomial((MAX_DEGREE - 1,) + (1,) * (n - 1)))
            # the lcm of two packed monomials is exact field by field, and
            # its degree check refuses it
            other = pk.pack(Monomial((0, 1) + (0,) * (n - 2)))
            (lcm,) = groebner._lcms([pk.pack(top)], other, pk.guards)
            assert lcm == pk.pack(top) + other
            with pytest.raises(OverflowError):
                groebner._degree(lcm)

    def test_buchberger_refuses_a_generator_past_the_limit(self):
        g = bino(m4(MAX_DEGREE + 1), m4(0, 1))
        with pytest.raises(OverflowError):
            buchberger([g], AFFINE_ORDER)

    def test_buchberger_refuses_an_lcm_past_the_limit(self):
        # both generators fit; the lcm of their leads does not
        f = bino(m4(MAX_DEGREE - 1, 1), m4(0, 0, 1))
        g = bino(m4(0, 2), m4(0, 0, 0, 1))
        with pytest.raises(OverflowError):
            buchberger([f, g], AFFINE_ORDER)

    def test_is_groebner_refuses_an_lcm_past_the_limit(self):
        f = bino(m4(MAX_DEGREE - 1, 1), m4(0, 0, 1))
        g = bino(m4(0, 2), m4(0, 0, 0, 1))
        with pytest.raises(OverflowError):
            is_groebner(BinomialBasis((f, g), AFFINE_ORDER))


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
        x3 = m4(0, 0, 1)
        for data, m in members:
            gens = generators(data, m)
            # a generator whose lead an earlier lead divides joins as its
            # normal form, here zero
            padded = (*gens, Binomial(gens[0].lead * x3, gens[0].trail * x3))
            outs = []
            for gs in (gens, padded):
                out = buchberger(gs, AFFINE_ORDER)
                assert is_groebner(out).ok, (data, m)
                expected = reduce_basis(plain_buchberger(gs, AFFINE_ORDER)).elements
                assert reduce_basis(out).elements == expected, (data, m)
                outs.append(out.elements)
            assert outs[0] == outs[1], (data, m)

    def test_weighted_selection_ends_at_the_same_reduced_basis(self):
        # weighed by the degree vector, the kernel pops the pairs in
        # another order (by ascending a-degree) but, run to the end, still
        # returns a Groebner basis of the same ideal
        members = sample_applicable(43, 30, max_row=10, max_m=10) + sample_long_basis(3, 3)
        for data, m in members:
            gens = generators(data, m)
            pk, leads, trails = groebner._buchberger(
                gens, AFFINE_ORDER, groebner.DEFAULT_STEP_BOUND, member_degrees(data, m)
            )
            elements = tuple(pk.binomial(lead, trail) for lead, trail in zip(leads, trails))
            weighted = BinomialBasis(elements, AFFINE_ORDER)  # unflagged, so the check runs
            expected = reduce_basis(buchberger(gens, AFFINE_ORDER)).elements
            assert reduce_basis(weighted).elements == expected, (data, m)

    def test_same_reduced_basis_as_all_pairs_oracle_homogenized(self):
        members = sample_applicable(47, 30, max_row=10, max_m=10) + sample_long_basis(5, 2)
        for data, m in members:
            gens = [homogenize(g) for g in generators(data, m)]
            out = buchberger(gens, PROJECTIVE_ORDER)
            assert is_groebner(out).ok, (data, m)
            expected = reduce_basis(plain_buchberger(gens, PROJECTIVE_ORDER)).elements
            assert reduce_basis(out).elements == expected, (data, m)

    @staticmethod
    def _calls(monkeypatch, name, run) -> int:
        calls = []
        real = getattr(groebner, name)

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(groebner, name, counting)
        run()
        return len(calls)

    def test_update_keeps_its_pair_counts(self, monkeypatch, basic_data):
        # the Gebauer-Moeller update is deterministic: another count here
        # means the pairs it keeps have changed
        for (data, m), expected in (((basic_data, 0), 13), (self.LONG, 188)):
            gens = generators(data, m)
            fast = self._calls(monkeypatch, "_s_pair", lambda: buchberger(gens, AFFINE_ORDER))
            assert fast == expected, (data, m)

    def test_criterion_skips_pairs(self, monkeypatch, basic_data):
        # `buchberger` forms its S-pairs packed, in `_s_pair`; the oracle
        # forms them on tuples, through `s_binomial`
        for data, m in ((basic_data, 0), self.LONG):
            gens = generators(data, m)
            fast = self._calls(monkeypatch, "_s_pair", lambda: buchberger(gens, AFFINE_ORDER))
            plain = self._calls(
                monkeypatch, "s_binomial", lambda: plain_buchberger(gens, AFFINE_ORDER)
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

    def test_reduced_leads_from_any_groebner_basis(self):
        members = sample_applicable(53, 16, max_row=10, max_m=10) + sample_long_basis(11, 3)
        x3 = m4(0, 0, 1)
        for data, m in members:
            gens = generators(data, m)
            # a Groebner basis plus an element of its ideal is still one; x3
            # times a generator has a non-minimal lead and trail
            extra = Binomial(gens[0].lead * x3, gens[0].trail * x3)
            for order, hs, h_extra in (
                (AFFINE_ORDER, gens, extra),
                (PROJECTIVE_ORDER, tuple(map(homogenize, gens)), homogenize(extra)),
            ):
                out = buchberger(hs, order)
                leads = tuple(b.lead for b in reduce_basis(out))
                padded = BinomialBasis((*out, h_extra), order)  # unflagged, so the check runs
                for basis in (out, padded):
                    assert initial_generators(basis) == leads, (data, m, order)
                    assert len(basis) > len(leads) or basis is out

    def test_checks_an_unverified_basis(self, big_data):
        closed = closed_form_basis(big_data, 0).basis
        unflagged = BinomialBasis(closed.elements, AFFINE_ORDER)
        assert initial_generators(unflagged) == tuple(b.lead for b in closed)
        f = generators(big_data, 0)
        with pytest.raises(NotGroebnerError):
            initial_generators(BinomialBasis((f[1], f[2]), AFFINE_ORDER))


class TestSerialization:
    def test_canonical_element_order(self, big_data):
        basis = closed_form_basis(big_data, 0).basis
        keys = [AFFINE_ORDER.key(b.lead) for b in basis.sorted_elements()]
        assert keys == sorted(keys)
        assert basis.to_json() == {
            "order": AFFINE_ORDER.to_json(),
            "elements": [b.to_json() for b in basis.sorted_elements()],
        }


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
