import math
import time
from itertools import permutations
from random import Random

import pytest

from curvelab import (
    AnomalyError,
    Binomial,
    BresinskyData,
    RefusalError,
    a_from_d,
    analyze_member,
    case_conditions,
    closed_form_basis,
    compute_w,
    cross_validate,
    d_from_a,
    d_from_a_any_order,
    extra_binomials,
    generators,
    is_groebner,
    member_degrees,
    reduce_basis,
    shift_vector,
)
from curvelab.bresinsky import (
    _ROWS,
    SKIP_GCD,
    SKIP_MAX,
    _least_hit,
    _least_representations,
    degree_refusal,
)
from conftest import even_family_data, family_data
from helpers import (
    brute_force_parameters,
    least_representations_by_walk,
    m4,
    pair_set,
    random_valid_data,
    toric_membership,
)


class TestData:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BresinskyData(0, 1, 1, 1, 1, 1, 1, 1)

    def test_row_sums(self, basic_data):
        assert (basic_data.d1, basic_data.d2, basic_data.d3, basic_data.d4) == (5, 4, 5, 2)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            BresinskyData(2.5, 3, 3, 1, 2, 3, 1, 1)


class TestDegreeVector:
    def test_basic(self, basic_data):
        assert a_from_d(basic_data) == (19, 29, 26, 43)

    def test_big(self, big_data):
        assert a_from_d(big_data) == (1191, 1239, 582, 2303)

    def test_noncm_family(self):
        assert a_from_d(family_data(2)) == (8, 5, 7, 9)
        for a in range(2, 8):
            expected = (2 * a * a + a - 2, 2 * a + 1, 2 * a + 3, 2 * a * a + a - 1)
            assert a_from_d(family_data(a)) == expected

    def test_even_family(self):
        for a in (4, 6, 8):
            expected = (a * a + 5 * a, 7 * a + 6, 6 * a + 1, 3 * a * a + 3 * a - 2)
            assert a_from_d(even_family_data(a)) == expected


class TestShiftVector:
    def test_fixtures(self, basic_data, big_data):
        assert shift_vector(basic_data) == (11, 13, 10, 11)
        assert shift_vector(big_data) == (149, 141, 42, 149)

    def test_noncm_family_formula(self):
        for a in range(2, 8):
            v = shift_vector(family_data(a))
            assert v == (a * a + a - 1, a + 1, a + 2, a * a + a - 1)

    def test_first_equals_last_randomized(self):
        rng = Random(11)
        for _ in range(100):
            v = shift_vector(random_valid_data(rng))
            assert v[0] == v[3]


class TestGenerators:
    def test_basic_m0(self, basic_data):
        # x1^5 - x3^2*x4, x2^4 - x1^2*x3^3, x3^5 - x2^3*x4,
        # x1^3*x2 - x4^2, x2*x3^2 - x1^2*x4
        got = pair_set(generators(basic_data, 0))
        expected = {
            frozenset(((5, 0, 0, 0), (0, 0, 2, 1))),
            frozenset(((0, 4, 0, 0), (2, 0, 3, 0))),
            frozenset(((0, 0, 5, 0), (0, 3, 0, 1))),
            frozenset(((3, 1, 0, 0), (0, 0, 0, 2))),
            frozenset(((0, 1, 2, 0), (2, 0, 0, 1))),
        }
        assert got == expected

    def test_shift_changes_only_first_and_fourth(self, big_data):
        g0 = generators(big_data, 0)
        g1 = generators(big_data, 1)
        assert pair_set(g0[1:3]) == pair_set(g1[1:3])
        assert pair_set((g0[4],)) == pair_set((g1[4],))
        assert g1[0].lead == m4(17)  # x1^(d1+1)
        assert g1[3].trail == m4(0, 0, 0, 10)  # x4^(d4+1)

    def test_noncm_a2_m3(self):
        gens = generators(family_data(2), 3)
        assert pair_set((gens[0],)) == {frozenset(((5, 0, 0, 0), (0, 0, 1, 4)))}
        assert pair_set((gens[3],)) == {frozenset(((4, 2, 0, 0), (0, 0, 0, 5)))}
        degrees = (23, 14, 19, 24)
        for g in gens:
            assert toric_membership(g, degrees)

    def test_membership_randomized(self):
        rng = Random(23)
        for _ in range(60):
            data = random_valid_data(rng)
            m = rng.randint(0, 6)
            fam = a_from_d(data)
            v = shift_vector(data)
            degrees = tuple(a + m * s for a, s in zip(fam, v))
            for g in generators(data, m):
                assert toric_membership(g, degrees)

    def test_negative_shift_rejected(self, basic_data):
        with pytest.raises(ValueError):
            generators(basic_data, -1)


class TestToricMembership:
    def test_fifth_generator(self):
        # x2*x3^2 - x1^2*x4 against (19,29,26,43): 29+52 = 38+43
        b = Binomial(m4(0, 1, 2), m4(2, 0, 0, 1))
        assert toric_membership(b, (19, 29, 26, 43))

    def test_equal_weights(self):
        b = Binomial(m4(1), m4(0, 1))
        assert toric_membership(b, (7, 7, 9, 11))
        assert not toric_membership(b, (19, 29, 26, 43))


class TestW:
    def test_fixtures(self, basic_data, big_data):
        assert compute_w(big_data, 0) == 2
        assert compute_w(big_data, 5) == 3
        assert compute_w(basic_data, 0) == 2

    def test_regimes(self, big_data):
        for m in range(0, 31):
            assert compute_w(big_data, m) == (2 if m <= 2 else 3)

    def test_at_least_two_randomized(self):
        rng = Random(5)
        for _ in range(200):
            assert compute_w(random_valid_data(rng), rng.randint(0, 12)) >= 2

    def test_matches_least_l_definition(self):
        # m runs far past the point where w stops growing
        rng = Random(13)
        for _ in range(300):
            data = random_valid_data(rng, max_row=30)
            for m in (0, rng.randint(1, 40), rng.randint(41, 2000)):
                l = 1
                while data.d1 + m - l * data.d21 > 0 and data.d3 - l * data.d23 > 0:
                    l += 1
                assert compute_w(data, m) == l


class TestExtraBinomials:
    def test_big_m0_single_r(self, big_data):
        (r,) = extra_binomials(big_data, 0)
        assert compute_w(big_data, 0) == 2
        assert not case_conditions(big_data, 0).branch_positive
        assert r.lead == m4(0, 21)
        assert r.trail == m4(2, 0, 5, 9)

    def test_big_m12_full_set(self, big_data):
        extras = extra_binomials(big_data, 12)
        assert compute_w(big_data, 12) == 3
        assert case_conditions(big_data, 12).branch_positive
        p1, q1, r = extras
        assert pair_set((p1,)) == {frozenset(((0, 21, 4, 0), (18, 0, 0, 3)))}
        assert pair_set((q1,)) == {frozenset(((10, 21, 0, 0), (0, 0, 5, 21)))}
        assert pair_set((r,)) == {frozenset(((0, 32, 0, 0), (27, 0, 1, 3)))}
        degrees = (2979, 2931, 1086, 4091)
        for b in extras:
            assert toric_membership(b, degrees)

    def test_w2_always_just_r(self):
        rng = Random(9)
        found = 0
        while found < 40:
            data = random_valid_data(rng)
            m = rng.randint(0, 8)
            if compute_w(data, m) != 2:
                continue
            found += 1
            assert len(extra_binomials(data, m)) == 1

    def test_membership_randomized(self):
        rng = Random(31)
        for _ in range(80):
            data = random_valid_data(rng)
            m = rng.randint(0, 8)
            degrees = tuple(a + m * s for a, s in zip(a_from_d(data), shift_vector(data)))
            for b in extra_binomials(data, m):
                assert toric_membership(b, degrees)


class TestClosedForm:
    def test_case1(self):
        closed = closed_form_basis(family_data(2), 0)
        assert closed.case == 1
        assert closed.basis.is_reduced and closed.basis.is_groebner_verified
        assert pair_set(closed.basis) == pair_set(generators(family_data(2), 0))

    def test_case2(self, big_data):
        closed = closed_form_basis(big_data, 0)
        assert closed.case == 2
        assert len(closed.basis) == 6
        assert closed.basis.is_reduced
        assert is_groebner(closed.basis).ok

    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_case2_reduced_flag_is_checked_not_assumed(self, big_data, m):
        closed = closed_form_basis(big_data, m)
        assert closed.case == 2 and closed.basis.is_reduced
        assert reduce_basis(closed.basis).elements == closed.basis.elements

    def test_refusal_names_first_failing_condition(self):
        with pytest.raises(RefusalError) as exc:
            closed_form_basis(family_data(3), 0)
        assert exc.value.reason == "conditions not met"
        assert exc.value.details["condition"] == "d1-d13-d14"
        assert exc.value.details["value"] == -1

    def test_refusal_on_common_factor(self, basic_data):
        with pytest.raises(RefusalError) as exc:
            closed_form_basis(basic_data, 1)  # degrees (30,42,36,54)
        assert exc.value.reason == "gcd>1"

    def test_verified_whenever_returned_randomized(self):
        rng = Random(41)
        produced = 0
        while produced < 25:
            data = random_valid_data(rng)
            m = rng.randint(0, 6)
            try:
                closed = closed_form_basis(data, m)
            except RefusalError:
                continue
            produced += 1
            assert is_groebner(closed.basis).ok


class TestRecovery:
    def test_basic(self, basic_data):
        assert d_from_a((19, 29, 26, 43)) == basic_data

    def test_big(self, big_data):
        assert d_from_a((1191, 1239, 582, 2303)) == big_data

    def test_tiny_vectors_are_not_of_this_form(self):
        assert d_from_a((1, 2, 3, 4)) is None
        assert d_from_a((2, 3, 4, 5)) is None

    def test_requires_coprime(self):
        with pytest.raises(RefusalError):
            d_from_a((2, 4, 6, 8))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            d_from_a((0, 2, 3, 4))

    def test_rejects_non_integer_entries(self):
        # read as (19, 29, 26, 43), the vector would recover the basic data
        with pytest.raises(TypeError):
            d_from_a((19.7, 29, 26, 43))

    def test_round_trip_fixtures(self, basic_data, big_data, noncm_a2):
        for data in (basic_data, big_data, noncm_a2, even_family_data(4)):
            assert d_from_a(a_from_d(data)) == data

    def test_round_trip_randomized(self):
        rng = Random(3)
        checked = 0
        while checked < 40:
            data = random_valid_data(rng, max_row=12)
            vec = a_from_d(data)
            if math.gcd(*vec) != 1:
                continue
            checked += 1
            assert d_from_a(vec) == data

    def test_any_order_identity_first(self, basic_data):
        hits = d_from_a_any_order((19, 29, 26, 43))
        assert ((0, 1, 2, 3), basic_data) in hits

    def test_any_order_reordered_shift(self, basic_data):
        # member at shift 8 has its maximum in the second coordinate
        degrees = tuple(a + 8 * v for a, v in zip((19, 29, 26, 43), (11, 13, 10, 11)))
        assert degrees == (107, 133, 106, 131)
        hits = d_from_a_any_order(degrees)
        perms = {perm: data for perm, data in hits}
        assert (2, 0, 3, 1) in perms
        data = perms[(2, 0, 3, 1)]
        # x1^5 - x3*x4^3, x2^13 - x1^2*x3^9, x3^10 - x2^11*x4,
        # x1^3*x2^2 - x4^4, x2^2*x3 - x1^2*x4
        assert data == BresinskyData(d21=2, d41=3, d32=11, d42=2, d13=1, d23=9, d14=3, d34=1)
        assert a_from_d(data) == (106, 107, 131, 133)

    def test_any_order_tied_entries(self):
        # a tie at the maximum admits no strict-max ordering
        assert d_from_a_any_order((1, 1, 1, 1)) == []
        assert d_from_a_any_order((2, 3, 7, 7)) == []
        with pytest.raises(RefusalError):
            d_from_a_any_order((2, 2, 2, 2))

    def test_matches_brute_force_on_every_strict_max_permutation(self):
        # the oracle only sees row sums <= cap; larger solutions are
        # beyond its reach, not wrong
        cap = 16
        rng = Random(5)
        checked = found = 0
        while checked < 120:
            a = a_from_d(random_valid_data(rng, max_row=12))
            if math.gcd(*a) != 1:
                continue
            for b in sorted(set(permutations(a))):
                if not all(b[3] > b[i] for i in range(3)):
                    continue
                checked += 1
                got = d_from_a(b)
                found += got is not None
                within = got is not None and max(got.d1, got.d2, got.d3, got.d4) <= cap
                assert brute_force_parameters(b, cap) == ([got] if within else []), b
        assert found >= 10  # the corpus is not vacuous

    def test_large_vector_not_of_this_form_stops_at_the_bound(self):
        # unbounded, row 1 would accept c = n + 6 (2c = a3 + a4); the
        # bound a3 / gcd(a1, a3) = n + 5 rejects it
        for n in (100000, 10**12):
            vec = (2, n + 3, n + 5, n + 7)
            start = time.perf_counter()
            assert d_from_a(vec) is None
            assert d_from_a_any_order(vec) == []
            assert time.perf_counter() - start < 1.0

    def test_recovery_is_cap_free(self, basic_data):
        # every coprime member from m=8 on has its maximum in x2
        for m in (60, 200, 1002, 1_000_002):
            deg = member_degrees(basic_data, m)
            assert degree_refusal(deg) == SKIP_MAX
            [(perm, data)] = d_from_a_any_order(deg)
            assert a_from_d(data) == tuple(deg[i] for i in perm)
            assert max(data.d1, data.d2, data.d3, data.d4) > 64

    def test_far_member_is_analyzed(self, basic_data):
        # a linear walk over c would take about 10^12 steps per row here
        m = 10**12 + 2
        start = time.perf_counter()
        report = analyze_member(basic_data, m)
        assert time.perf_counter() - start < 1.0
        assert report.applicable and report.reordered
        assert report.case == 1
        assert report.verdict_criterion is False and report.verdict_groebner is False
        [(perm, data)] = d_from_a_any_order(report.degrees)
        assert tuple(report.degrees[i] for i in perm) == report.permuted_degrees
        assert (data.d32, data.d23) == (m + 3, m + 1)


class TestLeastRepresentations:
    def test_matches_the_linear_walk(self):
        rng = Random(17)
        rows = 0
        none = 0
        for hi, count in ((10, 4000), (30, 4000), (100, 4000), (1000, 2000), (10**5, 300)):
            for _ in range(count):
                a = tuple(rng.randint(1, hi) for _ in range(4))
                for row in (rng.choice(_ROWS), tuple(rng.sample(range(4), 3))):
                    expected = least_representations_by_walk(a, *row)
                    assert _least_representations(a, *row) == expected, (a, row)
                    rows += 1
                    none += expected is None
        assert 0 < none < rows  # both outcomes are exercised

    def test_least_hit_matches_a_scan(self):
        for m in range(1, 31):
            for a in range(m + 1):  # a = m is a = 0 again
                first = {}
                for d in range(m):
                    first.setdefault(a * d % m, d)
                for lo in range(m):
                    best = None
                    for hi in range(lo, m):
                        d = first.get(hi)
                        if d is not None and (best is None or d < best):
                            best = d
                        assert _least_hit(a, m, lo, hi) == best, (a, m, lo, hi)


class TestMemberDegrees:
    def test_members(self, basic_data):
        assert a_from_d(basic_data) == (19, 29, 26, 43)
        assert shift_vector(basic_data) == (11, 13, 10, 11)
        for m in (0, 1, 8):
            assert member_degrees(basic_data, m) == tuple(
                a + m * v for a, v in zip((19, 29, 26, 43), (11, 13, 10, 11))
            )
        assert degree_refusal(member_degrees(basic_data, 0)) is None
        assert degree_refusal(member_degrees(basic_data, 1)) == SKIP_GCD
        assert degree_refusal(member_degrees(basic_data, 8)) == SKIP_MAX

    def test_rejects_negative_index(self, basic_data):
        calls = (
            lambda: member_degrees(basic_data, -1),
            lambda: case_conditions(family_data(2), -3),  # case 1
        )
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_rejects_non_integer_shifts(self, basic_data):
        # a float shift is neither truncated to a member nor carried into
        # the degrees and exponents
        calls = (
            lambda: member_degrees(basic_data, 2.0),
            lambda: generators(basic_data, 2.0),
            lambda: compute_w(basic_data, 2.0),
            lambda: case_conditions(family_data(2), 2.5),  # case 1
            lambda: cross_validate(basic_data, [2.5]),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_rejects_common_factor_base(self):
        # all four degree formulas scale together here: gcd 5
        data = BresinskyData(1, 1, 1, 1, 1, 1, 1, 1)
        assert a_from_d(data) == (5, 5, 5, 5)
        for m in (0, -1):  # the base is refused before the index is read
            with pytest.raises(RefusalError) as exc:
                member_degrees(data, m)
            assert exc.value.reason == SKIP_GCD
            assert exc.value.details == {"degrees": (5, 5, 5, 5)}


def test_no_anomalies_on_fixture_corpus():
    rng = Random(17)
    for _ in range(60):
        data = random_valid_data(rng)
        vec = a_from_d(data)
        if math.gcd(*vec) != 1:
            continue
        try:
            d_from_a(vec)
        except AnomalyError as exc:  # would indicate a real bug
            pytest.fail(f"anomaly reported for {vec}: {exc}")
