import dataclasses
import io
import json
import math
import sys
from random import Random

import pytest

import curvelab.acm as acm_mod
import curvelab.bresinsky as bresinsky_mod
import curvelab.groebner as groebner_mod
from curvelab import (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    AmbientMismatchError,
    Binomial,
    BinomialBasis,
    BresinskyData,
    DisagreementError,
    HomogeneousBasis,
    RefusalError,
    StepBoundExceeded,
    a_from_d,
    acm_by_criterion,
    acm_by_groebner,
    analyze_member,
    buchberger,
    check_h_membership,
    closed_form_basis,
    cross_validate,
    d_from_a,
    d_from_a_any_order,
    generators,
    homogeneous_basis,
    homogenize,
    initial_generators,
    is_groebner,
    member_degrees,
    reduce_basis,
)
from curvelab.acm import homogenized, x4_initial_generators
from curvelab.bresinsky import degree_refusal
from curvelab.cli import main
from curvelab.groebner import Packing
import test_groebner
from conftest import family_data
from helpers import (
    bino,
    dehomogenize,
    m4,
    m5,
    pair_set,
    random_valid_data,
    sample_applicable,
    sample_long_basis,
)


def _cond(result, name):
    for c in result.conditions:
        if c.name == name:
            return c
    raise AssertionError(f"condition {name} not evaluated: {[c.name for c in result.conditions]}")


class TestCriterion:
    def test_noncm_family_a2_true_everywhere(self):
        data = family_data(2)
        for m in range(0, 11):
            res = acm_by_criterion(data, m)
            assert res.case == 1 and res.all_pass

    @pytest.mark.parametrize("a", [3, 4, 5])
    def test_noncm_family_above_two_false_everywhere(self, a):
        data = family_data(a)
        for m in range(0, 11):
            res = acm_by_criterion(data, m)
            assert res.case == 1 and not res.all_pass
            assert not _cond(res, "d1-d13-d14").passed

    def test_basic_fails_with_value_minus_one(self, basic_data):
        for m in (0, 2, 6):
            res = acm_by_criterion(basic_data, m)
            assert res.case == 2 and res.w == 2 and not res.all_pass
            failing = [c for c in res.conditions if not c.passed]
            assert [(c.name, c.value) for c in failing] == [
                ("w(d2-d21-d23)+d3-d32-d34", -1)
            ]

    def test_big_three_regimes(self, big_data):
        for m in range(0, 31):
            try:
                res = acm_by_criterion(big_data, m)
            except RefusalError:
                continue
            assert res.all_pass
            if m <= 2:
                assert res.w == 2
                assert _cond(res, "w(d2-d21-d23)+d1+d23-d4-d32").value == 5
                assert _cond(res, "(w-1)(d2-d21-d23)+d3-d32-d34").value == 7
            elif m <= 11:
                assert res.w == 3
                assert _cond(res, "w(d2-d21-d23)+d1+d23-d4-d32").value == 2
                assert _cond(res, "(w-1)(d2-d21-d23)+d3-d32-d34").value == 4
            else:
                assert res.w == 3
                assert _cond(res, "w(d2-d21-d23)+d3-d32-d34").value == 1
                assert _cond(res, "(w-1)(d2-d21-d23)+d1+d23-d4-d32").value == 5

    def test_refuses_common_factor(self, basic_data):
        with pytest.raises(RefusalError) as exc:
            acm_by_criterion(basic_data, 1)
        assert exc.value.reason == "gcd>1"

    def test_refuses_non_maximal_fourth(self, basic_data):
        with pytest.raises(RefusalError) as exc:
            acm_by_criterion(basic_data, 8)
        assert exc.value.reason == "max-coordinate fails"

    def test_common_factor_base_is_refused_before_the_index(self):
        # a base with a common factor is refused even at a negative index
        with pytest.raises(RefusalError) as exc:
            acm_by_criterion(BresinskyData(1, 1, 1, 1, 1, 1, 1, 1), -1)
        assert exc.value.reason == "gcd>1"


class TestGroebnerOracle:
    def test_acm_fixture(self):
        data = family_data(2)
        verdict = acm_by_groebner((8, 5, 7, 9), generators(data, 0))
        assert verdict.acm and verdict.witness is None

    def test_noncm_a3_fixture(self):
        data = family_data(3)
        assert a_from_d(data) == (19, 7, 9, 20)
        verdict = acm_by_groebner((19, 7, 9, 20), generators(data, 0))
        assert not verdict.acm

    def test_basic_exhibits_x4_lead(self, basic_data):
        verdict = acm_by_groebner((19, 29, 26, 43), generators(basic_data, 0))
        x4_leads = x4_initial_generators((19, 29, 26, 43), generators(basic_data, 0))
        assert not verdict.acm
        assert m4(4, 0, 1, 1) in x4_leads and verdict.witness in x4_leads

    def test_refusals(self, basic_data):
        with pytest.raises(RefusalError) as exc:
            acm_by_groebner((2, 4, 6, 8), generators(basic_data, 0))
        assert exc.value.reason == "gcd>1"
        with pytest.raises(RefusalError) as exc:
            acm_by_groebner((9, 5, 7, 8), generators(basic_data, 0))
        assert exc.value.reason == "max-coordinate fails"

    def test_refusals_come_before_the_grading_check(self, basic_data):
        # each pair matches: its generators are homogeneous for its degrees
        for m, reason in ((1, "gcd>1"), (8, "max-coordinate fails")):
            deg, gens = member_degrees(basic_data, m), generators(basic_data, m)
            assert all(b.lead.weight(deg) == b.trail.weight(deg) for b in gens)
            with pytest.raises(RefusalError) as exc:
                acm_by_groebner(deg, gens)
            assert exc.value.reason == reason

    def test_rejects_generators_inhomogeneous_for_the_degrees(self, basic_data):
        # (8, 5, 7, 9) passes the refusal checks, but the generators of
        # (19, 29, 26, 43) are not homogeneous for it, so an early verdict
        # would have no proof
        with pytest.raises(ValueError, match="not homogeneous"):
            acm_by_groebner((8, 5, 7, 9), generators(basic_data, 0))

    def test_a_redundant_x4_lead_is_no_witness(self):
        # x4 * (x1^2 - x3*x4) lies in the ideal; x4 divides its lead
        # x1^2*x4, but so does x1^2, so it is no minimal generator and the
        # member stays ACM
        gens = generators(family_data(2), 0) + (bino(m4(2, 0, 0, 1), m4(0, 0, 1, 2)),)
        verdict = acm_by_groebner((8, 5, 7, 9), gens)
        assert verdict.acm and verdict.witness is None
        assert x4_initial_generators((8, 5, 7, 9), gens) == ()

    @pytest.mark.parametrize("degrees", [(8, 5, 7), (0, 5, 7, 9)])
    def test_rejects_malformed_vectors(self, degrees):
        with pytest.raises(ValueError):
            acm_by_groebner(degrees, generators(family_data(2), 0))

    def test_rejects_non_integer_degrees(self):
        # a float entry is not truncated to the member it rounds to
        with pytest.raises(TypeError):
            acm_by_groebner((8.5, 5, 7, 9), generators(family_data(2), 0))

    #: the first long-basis benchmark member (seed 7)
    LONG_7 = (BresinskyData(2, 4, 1, 1, 36, 1, 1, 2), 38)

    @staticmethod
    def _counted(monkeypatch, run):
        """The result of run() and how often it packed, unpacked, built
        a Binomial from packed monomials and formed a normal form."""
        calls = {"pack": 0, "unpack": 0, "binomial": 0, "_normal_form": 0}
        for name in ("pack", "unpack", "binomial"):
            real = getattr(Packing, name)

            def counting(self, *args, name=name, real=real):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(Packing, name, counting)
        real_nf = groebner_mod._normal_form

        def counting_nf(*args):
            calls["_normal_form"] += 1
            return real_nf(*args)

        monkeypatch.setattr(groebner_mod, "_normal_form", counting_nf)
        return run(), calls

    def test_verdict_unpacks_only_the_x4_leads(self, monkeypatch):
        # the full list unpacks the x4 leads and nothing else
        data, m = self.LONG_7
        deg, gens = member_degrees(data, m), generators(data, m)
        x4_leads, calls = self._counted(monkeypatch, lambda: x4_initial_generators(deg, gens))
        assert len(x4_leads) == 35
        assert calls == {"pack": 2 * len(gens), "unpack": 35, "binomial": 0, "_normal_form": 226}

    def test_early_verdict_unpacks_its_witness_only(self, monkeypatch):
        data, m = self.LONG_7
        gens = generators(data, m)
        full = x4_initial_generators(member_degrees(data, m), gens)
        verdict, calls = self._counted(
            monkeypatch, lambda: acm_by_groebner(member_degrees(data, m), gens)
        )
        assert not verdict.acm and verdict.witness == m4(0, 0, 3, 41) and verdict.witness in full
        assert calls == {"pack": 2 * len(gens), "unpack": 1, "binomial": 0, "_normal_form": 43}

    def test_table_runs_buchberger_once(self, monkeypatch):
        # the table reads the verdict off its run to the end; the JSON form
        # stops at the witness
        data, m = self.LONG_7
        argv = ["analyze", "--d", "2,4,1,1,36,1,1,2", "--m", str(m)]
        for fmt, normal_forms in (("table", 226), ("json", 43)):
            rc, calls = self._counted(
                monkeypatch, lambda: main([*argv, "--format", fmt], out=io.StringIO())
            )
            assert rc == 0 and calls["_normal_form"] == normal_forms, fmt

    def test_verdict_matches_the_unpacked_route(self):
        members = sample_applicable(seed=59, count=40) + [test_groebner.TestPairCriteria.LONG]
        for data, m in members:
            gens = generators(data, m)
            verdict = acm_by_groebner(member_degrees(data, m), gens)
            basis = buchberger(gens, AFFINE_ORDER)
            x4_leads = tuple(mono for mono in initial_generators(basis) if mono.exponent(4) > 0)
            assert x4_initial_generators(member_degrees(data, m), gens) == x4_leads, (data, m)
            assert verdict.acm == (not x4_leads), (data, m)
            assert verdict.witness in x4_leads if x4_leads else verdict.witness is None
            assert acm_by_groebner(member_degrees(data, m), gens) == verdict

    def test_early_verdict_matches_the_criterion_and_the_full_route(self):
        # long-basis members are non-ACM by construction; the applicable
        # corpus brings ACM members too
        verdicts = []
        for data, m in sample_long_basis(7, 20) + sample_applicable(seed=23, count=150):
            gens = generators(data, m)
            verdict = acm_by_groebner(member_degrees(data, m), gens)
            full = x4_initial_generators(member_degrees(data, m), gens)
            assert verdict.acm == acm_by_criterion(data, m).all_pass == (not full), (data, m)
            assert verdict.witness in full if full else verdict.witness is None, (data, m)
            verdicts.append(verdict.acm)
        assert verdicts[:20] == [False] * 20 and True in verdicts

    def test_graded_leads_are_minimal_and_the_witness_is_the_last(self):
        # under the a-grading no lead of the kernel divides another, so the
        # first lead that x4 divides ends the run and is the witness
        members = sample_applicable(seed=61, count=200) + sample_long_basis(13, 8)
        verdicts = set()
        for data, m in members:
            deg, gens = member_degrees(data, m), generators(data, m)
            run = (gens, AFFINE_ORDER, groebner_mod.DEFAULT_STEP_BOUND, deg)
            pk, leads, _ = groebner_mod._buchberger(*run)
            monos = [pk.unpack(p) for p in leads]
            assert not any(
                k != idx and a.divides(b) for k, a in enumerate(monos) for idx, b in enumerate(monos)
            ), (data, m)
            asked = []

            def x4_lead(p):
                asked.append(p)
                return pk.unpack(p).exponent(4) > 0

            pk, leads, _ = groebner_mod._buchberger(*run, x4_lead)
            assert asked == leads, (data, m)
            verdict = acm_by_groebner(deg, gens)
            if verdict.acm:
                assert verdict.witness is None and not any(mono.exponent(4) for mono in monos)
            else:
                assert pk.unpack(leads[-1]) == verdict.witness, (data, m)
                assert verdict.witness in x4_initial_generators(deg, gens), (data, m)
            verdicts.add(verdict.acm)
        assert verdicts == {True, False}

    def test_verdict_builds_no_reduced_basis(self, monkeypatch, basic_data, big_data):
        real = groebner_mod.reduce_basis
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "curvelab" and getattr(mod, "reduce_basis", None) is real:
                monkeypatch.setattr(mod, "reduce_basis", counting)
        for data, m in ((basic_data, 0), (basic_data, 8), (big_data, 0), (family_data(2), 0)):
            assert analyze_member(data, m).applicable
        assert calls == []
        # the wrapper is reachable: the oracle printout still reduces
        assert main(["gb", "--a", "8,5,7,9", "--m", "0", "--oracle"], out=io.StringIO()) == 0
        assert calls == [1]


class TestCrossValidate:
    def test_empty_range(self, basic_data):
        assert cross_validate(basic_data, []) == []

    def test_common_factor_base_is_refused_up_front(self):
        # refused before the loop, so even an empty range raises
        with pytest.raises(RefusalError) as exc:
            cross_validate(BresinskyData(1, 1, 1, 1, 1, 1, 1, 1), [])
        assert exc.value.reason == "gcd>1"

    def test_basic_family(self, basic_data):
        reports = cross_validate(basic_data, range(0, 21))
        assert [r.m for r in reports] == list(range(21))
        applicable = [r for r in reports if r.applicable]
        assert [r.m for r in applicable] == [0, 2, 6, 8, 12, 14, 18, 20]
        for r in applicable:
            assert r.agree and not r.verdict_criterion and not r.verdict_groebner
            assert r.reordered == (r.m > 7)
        skipped = {r.m: r.skip_reason for r in reports if not r.applicable}
        assert skipped[1] == "gcd>1" and skipped[7] == "gcd>1"

    def test_basic_reorder_labels(self, basic_data):
        reports = {r.m: r for r in cross_validate(basic_data, range(8, 9))}
        r8 = reports[8]
        assert r8.reordered and r8.permuted_degrees == (106, 107, 131, 133)
        assert r8.degrees == (107, 133, 106, 131)
        assert r8.case == 1

    def test_step_bound_is_a_typed_skip(self, basic_data):
        # ACM members run Buchberger to the end, so one step trips each
        reports = cross_validate(family_data(2), range(0, 4), step_bound=1)
        assert [r.skip_reason for r in reports] == ["step bound exceeded"] * 4
        # a non-ACM verdict may stop early: at m = 0 it still needs a step
        reports = cross_validate(basic_data, range(0, 1), step_bound=0)
        assert [r.skip_reason for r in reports] == ["step bound exceeded"]

    def test_refusal_inside_a_member_is_not_a_skip_row(self, monkeypatch, basic_data):
        # analyze_member returns its own skip rows, so a RefusalError from
        # deeper down is a bug and must abort the scan
        def refused(*args):
            raise RefusalError("injected")

        monkeypatch.setattr(acm_mod, "generators", refused)
        with pytest.raises(RefusalError, match="injected"):
            cross_validate(basic_data, range(0, 3))

    def test_big_family(self, big_data):
        reports = cross_validate(big_data, range(0, 16))
        for r in reports:
            if r.applicable:
                assert r.agree and r.verdict_criterion and r.verdict_groebner
                assert r.w == (2 if r.m <= 2 else 3)
            else:
                assert r.skip_reason == "gcd>1"

    def test_disagreement_aborts_with_a_dump(self, monkeypatch, basic_data):
        real = acm_mod.acm_by_groebner

        def flipped(*args):
            gb = real(*args)
            return dataclasses.replace(gb, acm=not gb.acm)

        monkeypatch.setattr(acm_mod, "acm_by_groebner", flipped)
        # m=8 is analysed in permuted coordinates: the dump rebuilds the
        # basis of the first recovery hit's generators, not of the base's
        target_8 = d_from_a_any_order(member_degrees(basic_data, 8))[0][1]
        for m, target in ((0, basic_data), (8, target_8)):
            with pytest.raises(DisagreementError) as exc:
                analyze_member(basic_data, m)
            doc = json.loads(exc.value.dump)
            assert doc["report"]["agree"] is False and doc["report"]["verdict_groebner"] is True
            assert doc["report"]["reordered"] == (m == 8)
            gb = buchberger(generators(target, 0), AFFINE_ORDER)
            assert doc["groebner_basis"] == gb.to_json()
            basis = BinomialBasis(gb.elements, AFFINE_ORDER)  # unflagged, so the check runs
            assert is_groebner(basis).ok
            assert doc["x4_leads"] and set(doc["x4_leads"]) <= {str(b.lead) for b in basis}
            # every x4 generator, not the verdict's one witness
            x4_leads = x4_initial_generators(member_degrees(target, 0), generators(target, 0))
            assert doc["x4_leads"] == [str(x) for x in x4_leads]
        with pytest.raises(DisagreementError):
            cross_validate(basic_data, range(0, 4))  # not a skip row
        out = io.StringIO()
        assert main(["family", "--a", "19,29,26,43", "--m-range", "0..3"], out=out) == 3
        assert out.getvalue() == ""

    def test_disagreement_under_a_tight_bound_is_not_a_skip_row(self, monkeypatch, basic_data):
        # at m = 0 the verdict stops within one step, but the dump's run to
        # the end does not: the disagreement must still be raised
        gens = generators(basic_data, 0)
        with pytest.raises(StepBoundExceeded):
            x4_initial_generators(member_degrees(basic_data, 0), gens, 1)
        [row] = cross_validate(basic_data, range(0, 1), step_bound=1)
        assert row.applicable and row.agree
        real = acm_mod.acm_by_groebner

        def flipped(*args):
            gb = real(*args)
            return dataclasses.replace(gb, acm=not gb.acm)

        monkeypatch.setattr(acm_mod, "acm_by_groebner", flipped)
        with pytest.raises(DisagreementError) as exc:
            cross_validate(basic_data, range(0, 1), step_bound=1)
        doc = json.loads(exc.value.dump)
        assert doc["report"]["agree"] is False
        assert doc["x4_leads"] is None and doc["groebner_basis"] is None
        assert doc["not_rebuilt"] == "step bound exceeded"
        argv = ["analyze", "--a", "19,29,26,43", "--m", "0", "--step-bound", "1", "--format", "json"]
        out = io.StringIO()
        assert main(argv, out=out) == 3 and out.getvalue() == ""

    def test_agreement_on_random_corpus(self):
        for data, m in sample_applicable(seed=101, count=40):
            report = analyze_member(data, m)  # raises on disagreement
            assert report.applicable and report.agree


def _reordered_members(data, ms):
    """(m, degrees) of the coprime members whose strict maximum is not in
    the fourth coordinate: the ones analyze_member recovers in permuted
    coordinates."""
    for m in ms:
        deg = member_degrees(data, m)
        if degree_refusal(deg) is not None and math.gcd(*deg) == 1 and deg.count(max(deg)) == 1:
            yield m, deg


class TestReorderedRecovery:
    """analyze_member stops at the first recovery hit; it must be the hit
    that d_from_a_any_order lists first."""

    def _assert_first_hit(self, monkeypatch, data, m, deg):
        targets = []
        real = acm_mod.acm_by_criterion

        def spy(target, tm):
            targets.append((target, tm))
            return real(target, tm)

        monkeypatch.setattr(acm_mod, "acm_by_criterion", spy)
        perm, target = d_from_a_any_order(deg)[0]
        report = analyze_member(data, m)
        assert report.reordered and report.agree
        assert report.permuted_degrees == tuple(deg[i] for i in perm)
        assert targets == [(target, 0)]

    def test_basic_scan(self, monkeypatch, basic_data):
        members = list(_reordered_members(basic_data, range(0, 201)))
        assert len(members) == 65
        for m, deg in members:
            self._assert_first_hit(monkeypatch, basic_data, m, deg)

    def test_seeded_corpus(self, monkeypatch):
        rng = Random(607)
        checked = 0
        while checked < 40:
            data, m = random_valid_data(rng), rng.randint(0, 10)
            if math.gcd(*a_from_d(data)) != 1:
                continue
            for _, deg in _reordered_members(data, [m]):
                self._assert_first_hit(monkeypatch, data, m, deg)
                checked += 1

    def test_stops_at_the_first_hit(self, monkeypatch, basic_data):
        calls = []
        real = bresinsky_mod.d_from_a

        def counting(vec):
            calls.append(vec)
            return real(vec)

        monkeypatch.setattr(bresinsky_mod, "d_from_a", counting)
        deg = member_degrees(basic_data, 8)
        d_from_a_any_order(deg)
        solved_by_listing = len(calls)
        calls.clear()
        report = analyze_member(basic_data, 8)
        assert report.permuted_degrees == calls[-1] == (106, 107, 131, 133)
        assert len(calls) < solved_by_listing


class TestHomogenize:
    def test_pads_lower_degree_side(self):
        f2 = bino(m4(0, 4), m4(2, 0, 3))  # x2^4 - x1^2*x3^3
        h = homogenize(f2)
        assert {h.lead, h.trail} == {m5(1, 0, 4), m5(0, 2, 0, 3)}
        assert h.lead == m5(0, 2, 0, 3)  # original lead stays the lead

    def test_case1_pattern(self):
        f2 = bino(m4(0, 3), m4(1, 0, 1))  # x2^3 - x1*x3
        h = homogenize(f2)
        assert h.lead == m5(0, 0, 3) and h.trail == m5(1, 1, 0, 1)

    def test_already_homogeneous_unchanged(self):
        f = bino(m4(2), m4(0, 0, 1, 1))  # x1^2 - x3*x4
        h = homogenize(f)
        assert h.lead == m5(0, 2) and h.trail == m5(0, 0, 0, 1, 1)

    def test_deep_extra_binomial(self, big_data):
        # x2^21 - x1^2*x3^5*x4^9 gains x0^5 on the trailing side
        r = bino(m4(0, 21), m4(2, 0, 5, 9))
        h = homogenize(r)
        assert h.lead == m5(0, 0, 21)
        assert h.trail == m5(5, 2, 0, 5, 9)

    def test_rejects_homogenized_input(self):
        h = Binomial(m5(0, 0, 3), m5(1, 1, 0, 1))
        with pytest.raises(AmbientMismatchError):
            homogenize(h)

    def test_dehomogenize_round_trip(self, big_data):
        for b in closed_form_basis(big_data, 0).basis:
            assert dehomogenize(homogenize(b)) == b


class TestHMembership:
    def test_case1_basis_members(self):
        hb = homogeneous_basis(family_data(2), 0)
        for b in hb:
            assert check_h_membership(b, (8, 5, 7, 9))

    def test_unbalanced_pair_fails(self):
        b = Binomial(m5(0, 1), m5(1))  # x1 - x0
        assert not check_h_membership(b, (19, 29, 26, 43))

    def test_rejects_non_integer_degrees(self):
        b = Binomial(m5(0, 1), m5(1))  # x1 - x0
        with pytest.raises(TypeError):
            check_h_membership(b, (19, 29, 26, 43.0))

    def test_degenerate_pair_unrepresentable(self):
        with pytest.raises(ValueError):
            Binomial(m5(1, 0, 0, 0, 1), m5(1, 0, 0, 0, 1))


class TestHomogeneousBasis:
    def test_case1_display(self):
        hb = homogeneous_basis(family_data(2), 0)
        assert hb.is_reduced
        expected = {
            frozenset(((0, 2, 0, 0, 0), (0, 0, 0, 1, 1))),  # x1^2 - x3*x4
            frozenset(((0, 0, 3, 0, 0), (1, 1, 0, 1, 0))),  # x2^3 - x0*x1*x3
            frozenset(((0, 0, 0, 2, 0), (0, 0, 1, 0, 1))),  # x3^2 - x2*x4
            frozenset(((0, 1, 2, 0, 0), (1, 0, 0, 0, 2))),  # x1*x2^2 - x0*x4^2
            frozenset(((0, 0, 2, 1, 0), (1, 1, 0, 0, 1))),  # x2^2*x3 - x0*x1*x4
        }
        assert {frozenset((b.lead.exponents, b.trail.exponents)) for b in hb} == expected

    def test_case2_includes_extra(self, big_data):
        hb = homogeneous_basis(big_data, 0)
        assert len(hb) == 6 and hb.is_reduced
        assert reduce_basis(hb).elements == hb.elements
        assert frozenset(((0, 0, 21, 0, 0), (5, 2, 0, 5, 9))) in {
            frozenset((b.lead.exponents, b.trail.exponents)) for b in hb
        }
        assert is_groebner(hb).ok

    def test_setting_x0_to_one_recovers_closed_form(self, big_data):
        for data, m in ((family_data(2), 0), (family_data(2), 3), (big_data, 0), (big_data, 2)):
            hb = homogeneous_basis(data, m)
            dehom = pair_set(dehomogenize(b) for b in hb)
            assert dehom == pair_set(closed_form_basis(data, m).basis)

    def test_refuses_non_acm(self, basic_data):
        with pytest.raises(RefusalError) as exc:
            homogeneous_basis(basic_data, 0)
        assert exc.value.reason == "not arithmetically Cohen-Macaulay"

    def test_rejects_an_inhomogeneous_element(self):
        b = Binomial.from_pair(m5(0, 2, 0, 0, 0), m5(0, 0, 0, 1, 0), PROJECTIVE_ORDER)  # x1^2 - x3
        with pytest.raises(ValueError, match="inhomogeneous element"):
            HomogeneousBasis((b,), PROJECTIVE_ORDER, degrees=(8, 5, 7, 9))

    def test_rejects_an_element_outside_the_homogenized_ideal(self):
        # x1 - x2 is homogeneous, but its sides weigh 8 and 5
        b = Binomial.from_pair(m5(0, 1, 0, 0, 0), m5(0, 0, 1, 0, 0), PROJECTIVE_ORDER)
        with pytest.raises(ValueError, match="fails homogeneous membership"):
            HomogeneousBasis((b,), PROJECTIVE_ORDER, degrees=(8, 5, 7, 9))

    def test_groebner_under_extended_order(self):
        hb = homogeneous_basis(family_data(2), 4)
        assert hb.order == PROJECTIVE_ORDER
        assert is_groebner(hb).ok

    @pytest.mark.parametrize("a", [(19, 29, 26, 43), (1191, 1239, 582, 2303)])
    def test_homogenized_oracle_basis_stays_reduced(self, a):
        oracle = reduce_basis(buchberger(generators(d_from_a(a), 0), AFFINE_ORDER))
        hb = homogenized(oracle, a)
        assert hb.is_reduced and hb.order == PROJECTIVE_ORDER
        assert is_groebner(hb).ok
        assert reduce_basis(hb).elements == hb.elements

    def test_closed_form_homogenization_flags_reduced_in_case1(self, big_data):
        # the case 2 members are reduced too, and flagged so
        for data, m in ((family_data(2), 0), (family_data(2), 3), (big_data, 0), (big_data, 2)):
            hb = homogeneous_basis(data, m)
            assert hb.is_reduced
            assert reduce_basis(hb).elements == hb.elements


def test_reports_serialize_without_floats(basic_data):
    reports = cross_validate(basic_data, range(0, 9))
    for r in reports:
        doc = r.to_dict()
        assert set(doc) == {
            "m", "degrees", "applicable", "skip_reason", "case", "w", "conditions",
            "verdict_criterion", "verdict_groebner", "agree", "reordered",
            "permuted_degrees",
        }

        def no_floats(x):
            if isinstance(x, float):
                return False
            if isinstance(x, dict):
                return all(no_floats(v) for v in x.values())
            if isinstance(x, list):
                return all(no_floats(v) for v in x)
            return True

        assert no_floats(doc)
