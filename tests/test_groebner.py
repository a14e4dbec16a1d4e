import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    AmbientMismatchError,
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
    is_groebner,
    member_degrees,
    reduce_basis,
    s_binomial,
)
from curvelab import groebner
from curvelab.bresinsky import _generator_exponents, degree_refusal
from curvelab.groebner import MAX_DEGREE, Packing, is_interreduced
from curvelab.render import basis_json
from helpers import (
    basis_dict,
    bino,
    binomial,
    divides,
    homogenize,
    lcm,
    m4,
    m5,
    normal_form,
    oriented,
    pair_of,
    pair_set,
    plain_buchberger,
    sample_applicable,
    sample_long_basis,
    times,
    toric_membership,
    tuple_normal_form,
    weight,
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
            Binomial(Monomial(m4(1)), Monomial(m4(1)))
        with pytest.raises(ValueError, match="zero binomial"):
            BinomialBasis(((m4(1), m4(1)),), AFFINE_ORDER)

    def test_from_pair_orients(self):
        b = Binomial.from_pair(Monomial(m4(0, 0, 2, 1)), Monomial(m4(5)), AFFINE_ORDER)
        assert pair_of(b) == (m4(5), m4(0, 0, 2, 1))
        assert Binomial.from_pair(Monomial(m4(1)), Monomial(m4(1)), AFFINE_ORDER) is None

    def test_str(self):
        assert str(binomial(bino(m4(5), m4(0, 0, 2, 1)))) == "x1^5 - x3^2*x4"

    def test_basis_rejects_unoriented_elements(self):
        wrong = (m4(0, 0, 2, 1), m4(5))  # trail has larger degree
        with pytest.raises(ValueError, match="not oriented"):
            BinomialBasis((wrong,), AFFINE_ORDER)
        # a well-oriented element does not hide a wrong one after it
        with pytest.raises(ValueError, match="not oriented"):
            BinomialBasis((wrong[::-1], wrong), AFFINE_ORDER)
        with pytest.raises(ValueError, match="not oriented"):
            BinomialBasis((bino(m5(0, 1), m5(1), PROJECTIVE_ORDER)[::-1],), PROJECTIVE_ORDER)


class TestSBinomial:
    def test_first_and_fourth_generator(self, basic_data):
        f = [binomial(g) for g in generators(basic_data, 0)]
        s = s_binomial(f[0], f[3], AFFINE_ORDER)
        # x1^2*x4^2 against x2*x3^2*x4; the x2-bearing side leads
        assert s.lead.exponents == m4(0, 1, 2, 1)
        assert s.trail.exponents == m4(2, 0, 0, 2)

    def test_self_pair_is_zero(self, basic_data):
        f = [binomial(g) for g in generators(basic_data, 0)]
        assert s_binomial(f[0], f[0], AFFINE_ORDER) is None

    def test_second_and_third_generator(self, basic_data):
        f = [binomial(g) for g in generators(basic_data, 0)]
        s = s_binomial(f[1], f[2], AFFINE_ORDER)
        # x1^2*x2^3*x4 against x2^4*x3^2
        assert {s.lead.exponents, s.trail.exponents} == {(2, 3, 0, 1), (0, 4, 2, 0)}

    def test_weight_preserved(self, basic_data):
        degrees = (19, 29, 26, 43)
        f = [binomial(g) for g in generators(basic_data, 0)]
        for i in range(5):
            for j in range(i + 1, 5):
                s = s_binomial(f[i], f[j], AFFINE_ORDER)
                if s is not None:
                    assert toric_membership(pair_of(s), degrees)


class TestNormalForm:
    """`groebner._normal_form`, through the `normal_form` helper that packs
    and unpacks exponent pairs."""

    def test_case1_s_pair_reduces_to_zero(self, noncm_a2):
        f = generators(noncm_a2, 0)
        basis = BinomialBasis(f, AFFINE_ORDER, is_groebner_verified=True)
        s = s_binomial(binomial(f[1]), binomial(f[3]), AFFINE_ORDER)
        assert normal_form(pair_of(s), basis) is None

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
                return tuple(rng.randint(0, 5) for _ in range(order.nvars))

            def small():
                return tuple(rng.randint(0, 2) for _ in range(order.nvars))

            elements = []
            while len(elements) < rng.randint(1, 5):
                b = oriented((mono(), mono()), order)
                if b is not None:
                    elements.append(b)
            # sides that some lead divides, often a multiple of an element
            g = rng.choice(elements)
            c = small()
            f = rng.choice((
                oriented((times(g[0], c), times(g[1], c)), order),
                oriented((times(g[0], c), times(rng.choice(elements)[1], small())), order),
                oriented((times(g[0], c), mono()), order),
                oriented((mono(), mono()), order),
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

    def test_rewrite_steps_preserve_weights(self, big_data):
        # every reduction step replaces a monomial by one of equal weight,
        # so a nonzero normal form keeps the multiset of side weights
        degrees = (1191, 1239, 582, 2303)
        gb = buchberger(generators(big_data, 0), AFFINE_ORDER)
        rng = random.Random(13)
        for _ in range(40):
            a = m4(*(rng.randint(0, 6) for _ in range(4)))
            b = m4(*(rng.randint(0, 6) for _ in range(4)))
            if a == b:
                continue
            f = bino(a, b)
            h = normal_form(f, gb)
            before = sorted((weight(a, degrees), weight(b, degrees)))
            if h is None:
                assert before[0] == before[1]
            else:
                after = sorted((weight(h[0], degrees), weight(h[1], degrees)))
                assert after == before


#: The field widths the kernel packs with: the full one and the narrow
#: one it tries first.
WIDTHS = (groebner.FIELD_BITS, groebner._NARROW_FIELD_BITS)


class TestPacking:
    """The packed primitives the engine runs (`_first_reducer`, `_lcms`,
    `_pair_rows`, `_toric_pairs`, `_degree`, `_key`, and the rewrite
    inside `_normal_form`)
    against the tuple oracles of `tests/helpers.py`, `MonomialOrder` and
    `Binomial.rewrite`, on seeded random exponent vectors, at each field
    width of WIDTHS."""

    @staticmethod
    def _vectors(rng, n, count, limit):
        """Small exponents; every third vector has degree `limit`."""
        out = []
        for k in range(count):
            e = [rng.randint(0, 7) for _ in range(n)]
            if k % 3 == 0:
                i = rng.randrange(n)
                e[i] = limit - (sum(e) - e[i])
            out.append(tuple(e))
        return out

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_agrees_with_tuple_operations(self, order):
        for bits in WIDTHS:
            pk = Packing(order, bits)
            limit, guards = pk.max_degree, pk.guards
            rng = random.Random(sum(order.priority) * 31 + order.nvars)
            monos = self._vectors(rng, order.nvars, 60, limit)
            packed = [pk.pack(a) for a in monos]
            for a, pa in zip(monos, packed):
                assert pk.unpack(pa) == a
                assert groebner._degree(pa, pk) == sum(a)
                first = next((k for k, d in enumerate(monos) if divides(d, a)), -1)
                assert groebner._first_reducer(pa, packed, guards) == first
                lcms = groebner._lcms(packed, pa, pk)
                for b, pb, pl in zip(monos, packed, lcms):
                    assert (groebner._first_reducer(pb, [pa], guards) == 0) == divides(a, b)
                    c = order.compare(Monomial(a), Monomial(b))
                    ka, kb = groebner._key(pa, pk), groebner._key(pb, pk)
                    assert (ka > kb) - (ka < kb) == c
                    m = lcm(a, b)
                    assert pk.unpack(pl) == m
                    if sum(m) > limit:
                        with pytest.raises(OverflowError):
                            groebner._degree(pl, pk)
                    else:
                        assert groebner._degree(pl, pk) == sum(m)
                        assert (pl == pa + pb) == (m == times(a, b))
            by_key = sorted(monos, key=lambda m: groebner._key(pk.pack(m), pk))
            assert by_key == sorted(monos, key=lambda m: order.key(Monomial(m))), bits

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_pair_rows_agree_with_tuple_operations(self, order):
        # a row per live lead, by ascending lcm degree, equal lcms adjacent
        # with a coprime one first and then by descending index; a row past
        # the degree limit makes the whole call refuse
        for bits in WIDTHS:
            pk = Packing(order, bits)
            rng = random.Random(sum(order.priority) * 37 + bits)
            monos = self._vectors(rng, order.nvars, 40, pk.max_degree)
            # small leads, two of them equal, and a new lead of any degree
            leads = [a for k, a in enumerate(monos) if k % 3]
            leads += [lcm(leads[0], leads[1])] * 2 + [(1,) + (0,) * (order.nvars - 1)]
            live = [(i, pk.pack(a)) for i, a in enumerate(leads)]
            refused = 0
            for b in monos:
                lcms = [lcm(a, b) for a in leads]
                if max(map(sum, lcms)) > pk.max_degree:
                    refused += 1
                    with pytest.raises(OverflowError):
                        groebner._pair_rows(live, pk.pack(b), pk)
                    continue
                rows = sorted(
                    (sum(m), pk.pack(m), m != times(a, b), -i, pk.pack(a))
                    for i, (a, m) in enumerate(zip(leads, lcms))
                )
                assert groebner._pair_rows(live, pk.pack(b), pk) == rows, (bits, b)
            assert 0 < refused < len(monos), bits
            assert groebner._pair_rows([], pk.pack(monos[0]), pk) == []

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_toric_pairs_keep_the_minimal_lcms_with_disjoint_trails(self, order):
        # of the new pairs, one per lcm that no other new lcm properly
        # divides: the last i, none when any pair of that lcm has coprime
        # leads; then only those whose trails share no variable
        for bits in WIDTHS:
            pk = Packing(order, bits)
            n = order.nvars
            rng = random.Random(sum(order.priority) * 41 + bits)

            def support(e):
                return sum(pk.variable_field(k) & pk.guards for k in range(n) if e[k])

            x1, x2, one = ((1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2), (0,) * n)
            # first a coprime pair (0, b) whose lcm x1*x2 that of (1, b) shares
            cases = [([x2, times(x1, x2)], [one, one], x1, one)]
            for _ in range(30):
                leads = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(8)]
                leads += [lcm(leads[0], leads[1])] * 2 + [x1]
                trails = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in leads]
                b, tb = (tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2))
                cases.append((leads, trails, b, tb))
            kept = skipped = 0
            for leads, trails, b, tb in cases:
                live = {i: pk.pack(a) for i, a in enumerate(leads)}
                supports = [(support(a), support(t)) for a, t in zip(leads, trails)]
                lcms = [lcm(a, b) for a in leads]
                expected = []
                for i, m in enumerate(lcms):
                    if any(divides(other, m) and other != m for other in lcms):
                        continue
                    group = [k for k, other in enumerate(lcms) if other == m]
                    if i != max(group) or any(lcms[k] == times(leads[k], b) for k in group):
                        continue
                    if any(x and y for x, y in zip(trails[i], tb)):
                        skipped += 1
                        continue
                    expected.append((i, pk.pack(m)))
                got = groebner._toric_pairs(live, supports, pk.pack(b), (support(b), support(tb)), pk)
                assert got == expected, (bits, leads, trails, b, tb)
                kept += len(expected)
            assert kept and skipped, bits

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_rewrites_agree_with_binomial_rewrite_at_the_limit(self, order):
        # f = lead*c - t with c a power of a variable that neither side of
        # the reducer contains: one packed rewrite turns the lead into
        # trail*c, of degree up to the packing's limit, which that reducer
        # no longer divides; the oracle rewrites tuples through
        # `Binomial.rewrite`
        n = order.nvars
        for bits in WIDTHS:
            limit = Packing(order, bits).max_degree
            rng = random.Random(order.nvars * 7 + order.priority[0])
            checked = 0
            for k in range(120):
                v = rng.randrange(n)
                sides = [[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
                for e in sides:
                    e[v] = 0
                b = oriented(sides, order)
                if b is None:
                    continue
                c = [0] * n
                c[v] = limit - sum(b[0]) - k % 3
                m = times(b[0], tuple(c))
                trail = tuple(rng.randint(0, 3) for _ in range(n))
                f = oriented((m, trail), order)
                expected = tuple_normal_form(f, [b], order)
                assert normal_form(f, BinomialBasis((b,), order), bits=bits) == expected
                assert expected[0] == binomial(b).rewrite(Monomial(m)).exponents
                checked += 1
            assert checked > 60, bits

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_least_priority_variable_fills_the_top_field(self, order):
        least = order.priority[-1]
        x = tuple(int(v == least) for v in sorted(order.priority))
        for bits in WIDTHS:
            pk = Packing(order, bits)
            assert pk.pack(x) == 1 << (pk.shift - bits)
            # the field of each variable is the one the variable sits in
            for i in range(order.nvars):
                xi = pk.pack(tuple(int(j == i) for j in range(order.nvars)))
                assert pk.variable_field(i) == pk.field * xi
                assert [bool(xi & pk.variable_field(j)) for j in range(order.nvars)] == [
                    j == i for j in range(order.nvars)
                ]

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(map(str, o.priority)))
    def test_pack_refuses_a_negative_exponent(self, order):
        # no Monomial stands in front of the kernel: unchecked, a negative
        # field would borrow from the field above it and pack silently to
        # another monomial; a basis refuses one on either side
        for bits in WIDTHS:
            pk = Packing(order, bits)
            for k in range(order.nvars):
                e = [2] * order.nvars
                e[k] = -1
                with pytest.raises(ValueError, match="negative exponent"):
                    pk.pack(tuple(e))
                other = (0,) * order.nvars
                for element in ((tuple(e), other), (other, tuple(e))):
                    with pytest.raises(ValueError, match="negative exponent"):
                        BinomialBasis((element,), order)

    def test_overflow_guard_raises_at_the_limit(self):
        assert Packing(AFFINE_ORDER).max_degree == MAX_DEGREE
        for order in ORDERS:
            for bits in WIDTHS:
                pk = Packing(order, bits)
                limit, n = pk.max_degree, order.nvars
                top = (limit,) + (0,) * (n - 1)
                assert groebner._degree(pk.pack(top), pk) == limit
                with pytest.raises(OverflowError, match=f"packed limit {limit}$"):
                    pk.pack((limit + 1,) + (0,) * (n - 1))
                with pytest.raises(OverflowError):
                    pk.pack((limit - 1,) + (1,) * (n - 1))
                # the lcm of two packed monomials is exact field by field,
                # and its degree check refuses it
                other = pk.pack((0, 1) + (0,) * (n - 2))
                (lcm,) = groebner._lcms([pk.pack(top)], other, pk)
                assert lcm == pk.pack(top) + other
                with pytest.raises(OverflowError):
                    groebner._degree(lcm, pk)

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


class TestFieldWidth:
    """`_buchberger` packs with _NARROW_FIELD_BITS first and reruns with
    FIELD_BITS only when a degree outgrows the narrow fields: its result
    is the 64-bit run's, element for element (see the module docstring)."""

    NARROW = groebner._NARROW_FIELD_BITS

    #: the first long-basis benchmark member (seed 7)
    LONG_7 = (BresinskyData(2, 4, 1, 1, 36, 1, 1, 2), 38)

    @staticmethod
    def _run(gens, bits, degrees=None, step_bound=groebner.DEFAULT_STEP_BOUND):
        """One kernel run at the given width, unpacked: the (lead, trail)
        exponent pairs in the order they joined."""
        pk, leads, trails = groebner._run(
            list(gens), Packing(AFFINE_ORDER, bits), step_bound, degrees, None
        )
        return [(pk.unpack(lead), pk.unpack(trail)) for lead, trail in zip(leads, trails)]

    @staticmethod
    def _kernel(gens, degrees=None, step_bound=groebner.DEFAULT_STEP_BOUND):
        pk, leads, trails = groebner._buchberger(gens, AFFINE_ORDER, step_bound, degrees)
        return pk.bits, [(pk.unpack(lead), pk.unpack(trail)) for lead, trail in zip(leads, trails)]

    def test_narrow_runs_match_the_full_width(self, basic_data, big_data):
        anchors = [
            (data, m)
            for data in (basic_data, big_data)
            for m in range(0, 41)
            if degree_refusal(member_degrees(data, m)) is None
        ]
        members = sample_long_basis(7, 60) + sample_applicable(3, 300) + anchors
        assert len(anchors) > 10
        for data, m in members:
            gens = generators(data, m)
            for degrees in (None, member_degrees(data, m)):  # unweighted and weighted
                wide = self._run(gens, groebner.FIELD_BITS, degrees)
                assert self._run(gens, self.NARROW, degrees) == wide, (data, m, degrees)
                assert self._kernel(gens, degrees) == (self.NARROW, wide), (data, m, degrees)

    def test_an_lcm_past_the_narrow_limit_reruns_at_full_width(self):
        # both generators fit the narrow fields; the lcm of their leads
        # does not, so the narrow run stops and the kernel reruns, with
        # weights too (both generators are homogeneous for them)
        limit = Packing(AFFINE_ORDER, self.NARROW).max_degree
        gens = [
            bino(m4(limit - 1, 1), m4(0, 0, 1)),
            bino(m4(0, 2), m4(0, 0, 0, 1)),
        ]
        for degrees in (None, (1, 1, limit, 2)):
            with pytest.raises(OverflowError, match=f"packed limit {limit}$"):
                self._run(gens, self.NARROW, degrees)
            wide = self._run(gens, groebner.FIELD_BITS, degrees)
            assert self._kernel(gens, degrees) == (groebner.FIELD_BITS, wide)
        assert buchberger(gens, AFFINE_ORDER).elements == tuple(self._run(gens, groebner.FIELD_BITS))

    def test_a_generator_past_the_narrow_limit_runs_at_full_width(self, basic_data):
        gens = generators(basic_data, 10**6)  # degrees in the tens of millions
        deg = member_degrees(basic_data, 10**6)
        assert max(sum(lead) for lead, _ in gens) > Packing(AFFINE_ORDER, self.NARROW).max_degree
        for degrees in (None, deg):
            wide = self._run(gens, groebner.FIELD_BITS, degrees)
            assert self._kernel(gens, degrees) == (groebner.FIELD_BITS, wide)

    def test_only_the_full_width_limit_reaches_the_caller(self):
        for gens in (
            [bino(m4(MAX_DEGREE + 1), m4(0, 1))],
            [bino(m4(MAX_DEGREE - 1, 1), m4(0, 0, 1)), bino(m4(0, 2), m4(0, 0, 0, 1))],
        ):
            with pytest.raises(OverflowError, match=f"packed limit {MAX_DEGREE}$"):
                self._kernel(gens)

    def test_step_bound_stops_both_widths_at_the_same_step(self, monkeypatch):
        # each width forms the same normal forms up to the one that runs
        # past the bound, and raises the same error there; a step bound is
        # no degree overflow, so the kernel does not rerun
        data, m = self.LONG_7
        gens, deg = generators(data, m), member_degrees(data, m)
        calls = []
        real = groebner._normal_form

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(groebner, "_normal_form", counting)

        def outcome(run):
            calls.clear()
            try:
                run()
            except StepBoundExceeded as exc:
                return str(exc), len(calls)
            return None, len(calls)

        # the least bound under which the full run to the end finishes: 2,
        # so the bounds below hold 0 and 1 twice
        need = next(
            b for b in range(10_000) if outcome(lambda: self._kernel(gens, deg, b))[0] is None
        )
        tripped = 0
        for bound in (0, 1, 2, need // 2, need - 1, need):
            narrow = outcome(lambda: self._run(gens, self.NARROW, deg, bound))
            wide = outcome(lambda: self._run(gens, groebner.FIELD_BITS, deg, bound))
            assert narrow == wide, bound
            assert outcome(lambda: self._kernel(gens, deg, bound)) == narrow, bound
            tripped += narrow[0] is not None
        assert need == 2 and tripped == 4


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

    def test_kernel_packs_and_orients_exponent_pairs(self, basic_data):
        def run(gens, order=AFFINE_ORDER):
            return groebner._buchberger(gens, order, groebner.DEFAULT_STEP_BOUND)

        gens = generators(basic_data, 0)
        pairs = _generator_exponents(basic_data, 0)  # unoriented, from the formulas
        flipped = [(rhs, lhs) for lhs, rhs in gens]
        _, leads, trails = run(gens)
        for form in (pairs, flipped, [(list(lhs), list(rhs)) for lhs, rhs in flipped]):
            assert run(form)[1:] == (leads, trails)
        assert buchberger(flipped, AFFINE_ORDER) == buchberger(gens, AFFINE_ORDER)
        with pytest.raises(ValueError, match="negative exponent"):
            run([((2, 0, 0, 0), (0, 1, -1, 0))])
        with pytest.raises(ValueError, match="zero generator"):
            run([((0, 1, 0, 0), (1, 0, 0, 0)), ((1, 2, 0, 0), (1, 2, 0, 0))])
        with pytest.raises(AmbientMismatchError):
            run([((1, 0, 0, 0), (0, 1, 0, 0, 0))])
        with pytest.raises(AmbientMismatchError):
            run([((1, 0, 0, 0), (0, 1, 0, 0))], PROJECTIVE_ORDER)
        with pytest.raises(OverflowError):
            run([((MAX_DEGREE + 1, 0, 0, 0), (0, 1, 0, 0))])

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
            padded = (*gens, (times(gens[0][0], x3), times(gens[0][1], x3)))
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
            elements = tuple(zip(map(pk.unpack, leads), map(pk.unpack, trails)))
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

    def test_only_weighted_runs_weigh_their_entries(self, monkeypatch):
        # without degrees every heap entry weighs 0 and `_weight` is not
        # called; with them it weighs both sides of each of the five
        # generators, and each of the 65 pairs the run pushes once
        data, m = self.LONG
        gens = generators(data, m)
        assert self._calls(monkeypatch, "_weight", lambda: buchberger(gens, AFFINE_ORDER)) == 0
        weighted = self._calls(monkeypatch, "_weight", lambda: groebner._buchberger(
            gens, AFFINE_ORDER, groebner.DEFAULT_STEP_BOUND, member_degrees(data, m)))
        assert weighted == 2 * len(gens) + 65

    def test_the_stopping_lead_forms_no_pairs(self, monkeypatch):
        # every joining lead goes through the pair update, which forms its
        # new pairs with one `_pair_rows` call, or in a weighted run one
        # `_toric_pairs` call, except the lead that stops the run
        calls = []
        for name in ("_pair_rows", "_toric_pairs"):

            def counting(*args, real=getattr(groebner, name)):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(groebner, name, counting)
        ends = set()
        for data, m in sample_applicable(53, 60) + sample_long_basis(11, 6):
            deg = member_degrees(data, m)
            for degrees, stop in ((None, None), (deg, None), (deg, 3)):
                calls.clear()
                pk, leads, _ = groebner._buchberger(
                    generators(data, m), AFFINE_ORDER, groebner.DEFAULT_STEP_BOUND, degrees, stop
                )
                assert pk.bits == groebner._NARROW_FIELD_BITS  # one run, no rerun
                stopped = stop is not None and bool(leads[-1] & pk.variable_field(stop))
                assert len(calls) == len(leads) - stopped, (data, m, degrees, stop)
                ends.add((stop, stopped))
        # runs that stop at x4 and runs that end by exhausting their pairs
        assert ends == {(None, False), (3, False), (3, True)}

    def test_tied_pairs_pop_by_index_and_reduce_by_the_first_lead(self, monkeypatch):
        # unweighted, so the generators join first.  The leads x1x2, x2x3
        # and x1x3 pairwise have the lcm x1x2x3: (0, 1) stays pending as 2
        # joins, and of (0, 2) and (1, 2) the update keeps (1, 2).  The tie
        # pops (0, 1) first, whose S-binomial x1^2x4 - x3x4^2 joins (its
        # trail reduced to x4^3) before that of (1, 2), x2^2x4 - x1^2x4,
        # which then reduces by it.  Popped the other way round,
        # x2^2x4 - x1^2x4 would join unreduced.  Each of
        # the three leads divides the fourth generator's lead x1x2x3, and the
        # first, x1x2, reduces it to x3x4^2; the last, x1x3, would give
        # x2^2x4.  (Ordering the tied pairs by (j, i) pops them as (i, j)
        # does: of two pending pairs (i, j), (k, l) with one lcm L and i < k,
        # l < j is impossible.  When j joins, (k, l) stays pending only if k
        # or l has the lcm L with j, and then that element, or the later
        # element whose lead divides its lead and so stops it forming pairs,
        # forms a pair with j whose lcm divides L and whose index exceeds
        # i, so (i, j) is not queued.)
        gens = [
            bino(m4(1, 1), m4(0, 0, 0, 2)),
            bino(m4(0, 1, 1), m4(1, 0, 0, 1)),
            bino(m4(1, 0, 1), m4(0, 1, 0, 1)),
            bino(m4(1, 1, 1), m4(0, 0, 0, 3)),
        ]
        lcms = []
        real = groebner._s_pair

        def recording(lcm, *args):
            lcms.append(lcm)
            return real(lcm, *args)

        monkeypatch.setattr(groebner, "_s_pair", recording)
        out = buchberger(gens, AFFINE_ORDER)
        pk = groebner._packing(AFFINE_ORDER, groebner._NARROW_FIELD_BITS)
        assert [pk.unpack(p) for p in lcms[:2]] == [m4(1, 1, 1)] * 2  # the tie
        assert out.elements == (
            *gens[:3],
            (m4(0, 0, 1, 2), m4(0, 0, 0, 3)),  # the fourth generator, reduced by x1x2
            (m4(2, 0, 0, 1), m4(0, 0, 0, 3)),  # pair (0, 1)
            (m4(0, 2, 0, 1), m4(0, 0, 0, 3)),  # pair (1, 2)
            (m4(0, 1, 0, 3), m4(1, 0, 0, 3)),
        )

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

    def test_output_is_in_canonical_order(self):
        # `gb --oracle` prints the pairs of reduce_basis as they come
        members = sample_applicable(27, 30) + sample_long_basis(27, 5)
        for order in (AFFINE_ORDER, MonomialOrder((4, 3, 1, 2))):
            for data, m in members:
                red = reduce_basis(buchberger(generators(data, m), order))
                assert red.elements == groebner._canonical_pairs(red, order), (order, data, m)

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
        f = bino(x1, x2, lex_first)
        g = bino(x2, x3, lex_first)
        assert is_groebner(BinomialBasis((f, g), lex_first)).ok

        # with x2 greatest both leads are x2 and the S-binomial x1 - x3
        # is irreducible
        f2 = bino(x1, x2, AFFINE_ORDER)
        g2 = bino(x2, x3, AFFINE_ORDER)
        cert = is_groebner(BinomialBasis((f2, g2), AFFINE_ORDER))
        assert not cert.ok
        assert [(i, j) for i, j, _ in cert.failures] == [(0, 1)]
        remainder = cert.failures[0][2]
        assert set(remainder) == {x1, x3}

    def test_partial_generator_set_fails(self, big_data):
        f = generators(big_data, 0)
        cert = is_groebner(BinomialBasis((f[1], f[2]), AFFINE_ORDER))
        assert not cert.ok


class TestIsInterreduced:
    @staticmethod
    def interreduced(elements) -> bool:
        return is_interreduced(tuple(elements))

    def test_reduced_basis_passes(self, basic_data):
        out = buchberger(generators(basic_data, 0), AFFINE_ORDER)
        assert self.interreduced(reduce_basis(out))

    def test_lead_dividing_a_trail_fails(self):
        assert not self.interreduced((bino(m4(3), m4(0, 2)), bino(m4(0, 2), m4(0, 0, 1))))

    def test_lead_dividing_a_lead_fails(self):
        assert not self.interreduced((bino(m4(2), m4(0, 0, 1)), bino(m4(3), m4(0, 1, 1))))

    def test_duplicate_element_fails(self):
        f = bino(m4(2), m4(0, 0, 1))
        assert not self.interreduced((f, f))

    def test_exponents_past_the_packed_limit(self):
        big = MAX_DEGREE + 1
        assert self.interreduced((bino(m4(big), m4(0, 0, 1)), bino(m4(0, big), m4(0, 0, 0, 1))))
        assert not self.interreduced((bino(m4(big), m4(0, 0, 1)), bino(m4(big + 1), m4(0, 1, 1))))

    def test_mixed_rings_raise(self):
        g = bino(m5(0, 0, 3), m5(1, 0, 0, 1), PROJECTIVE_ORDER)
        with pytest.raises(AmbientMismatchError):
            self.interreduced((bino(m4(2), m4(0, 0, 1)), g))
        # even when a lead of the same ring already divides another
        with pytest.raises(AmbientMismatchError):
            self.interreduced((bino(m4(2), m4(0, 0, 1)), bino(m4(3), m4(0, 1, 1)), g))
        # a basis refuses an element, or one side of it, of the other ring
        for element in (g, (g[0], m4(0, 0, 1)), (m4(2), g[1])):
            with pytest.raises(AmbientMismatchError):
                BinomialBasis((bino(m4(2), m4(0, 0, 1)), element), AFFINE_ORDER)
        with pytest.raises(AmbientMismatchError):
            BinomialBasis((bino(m4(2), m4(0, 0, 1)),), PROJECTIVE_ORDER)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 4),
                              st.tuples(*[st.integers(0, 2)] * 4)), max_size=5))
    def test_matches_pairwise_divides(self, pairs):
        elements = [oriented((a, b), AFFINE_ORDER) for a, b in pairs]
        elements = [f for f in elements if f is not None]
        expected = not any(
            (idx != k and divides(f[0], g[0])) or divides(f[0], g[1])
            for k, f in enumerate(elements)
            for idx, g in enumerate(elements)
        )
        assert self.interreduced(elements) == expected


def leads(basis: BinomialBasis) -> tuple[tuple[int, ...], ...]:
    return tuple(lead for lead, _ in basis)


class TestInitialGenerators:
    """The minimal generators of the initial ideal are the leads of the
    reduced basis."""

    def test_case1_leads(self, noncm_a2):
        red = reduce_basis(buchberger(generators(noncm_a2, 0), AFFINE_ORDER))
        assert set(leads(red)) == {m4(2), m4(0, 3), m4(0, 0, 2), m4(1, 2), m4(0, 2, 1)}

    def test_single_element(self):
        g = bino(m4(0, 2), m4(1, 0, 1))
        assert leads(reduce_basis(buchberger([g], AFFINE_ORDER))) == (g[0],)

    def test_non_acm_lead_carries_x4(self, basic_data):
        red = reduce_basis(buchberger(generators(basic_data, 0), AFFINE_ORDER))
        assert m4(4, 0, 1, 1) in leads(red)

    def test_reduced_leads_from_any_groebner_basis(self):
        members = sample_applicable(53, 16, max_row=10, max_m=10) + sample_long_basis(11, 3)
        x3 = m4(0, 0, 1)
        for data, m in members:
            gens = generators(data, m)
            # a Groebner basis plus an element of its ideal is still one; x3
            # times a generator has a non-minimal lead and trail
            extra = (times(gens[0][0], x3), times(gens[0][1], x3))
            for order, hs, h_extra in (
                (AFFINE_ORDER, gens, extra),
                (PROJECTIVE_ORDER, tuple(map(homogenize, gens)), homogenize(extra)),
            ):
                out = buchberger(hs, order)
                red = reduce_basis(out)
                padded = BinomialBasis((*out, h_extra), order)  # unflagged, so the check runs
                assert len(padded) > len(red)
                assert reduce_basis(padded).elements == red.elements, (data, m, order)

    def test_checks_an_unverified_basis(self, big_data):
        closed = closed_form_basis(big_data, 0).basis
        unflagged = BinomialBasis(closed.elements, AFFINE_ORDER)
        assert leads(reduce_basis(unflagged)) == leads(closed)
        f = generators(big_data, 0)
        with pytest.raises(NotGroebnerError):
            reduce_basis(BinomialBasis((f[1], f[2]), AFFINE_ORDER))


class TestSerialization:
    def test_canonical_element_order(self, big_data):
        basis = closed_form_basis(big_data, 0).basis
        def key(e):
            return AFFINE_ORDER.key(Monomial(e))

        expected = sorted(basis, key=lambda b: (key(b[0]), key(b[1])))
        pairs = groebner._canonical_pairs(basis, AFFINE_ORDER)
        assert pairs == tuple(expected)
        assert basis_json(AFFINE_ORDER, pairs) == json.dumps(
            basis_dict(AFFINE_ORDER, expected), indent=2
        )


def test_buchberger_agrees_on_random_member_sets(big_data, basic_data):
    # a randomly shuffled mix of generators and verified members generates
    # the same ideal, so the reduced basis must not change
    rng = random.Random(7)
    for data in (big_data, basic_data):
        gens = list(generators(data, 2))
        expected = reduce_basis(buchberger(gens, AFFINE_ORDER)).elements
        extra = pair_of(s_binomial(binomial(gens[0]), binomial(gens[3]), AFFINE_ORDER))
        pool = gens + [extra]
        rng.shuffle(pool)
        assert reduce_basis(buchberger(pool, AFFINE_ORDER)).elements == expected
