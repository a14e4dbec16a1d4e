"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Everything is exact integer computation; every comparison is exact
equality and the two stated runtime budgets are asserted."""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from curvelab import (
    AFFINE_ORDER,
    BresinskyData,
    a_from_d,
    acm_by_criterion,
    acm_by_groebner,
    buchberger,
    closed_form_basis,
    cross_validate,
    d_from_a,
    generators,
    homogeneous_basis,
    is_groebner,
    member_degrees,
    reduce_basis,
    shift_vector,
)
from curvelab.bresinsky import degree_refusal
from conftest import SRC, even_family_data, family_data
from helpers import dehomogenize, pair_set, sample_condition_passing, toric_membership

BASIC = BresinskyData(d21=2, d41=3, d32=3, d42=1, d13=2, d23=3, d14=1, d34=1)
BIG = BresinskyData(d21=9, d41=7, d32=1, d42=10, d13=9, d23=5, d14=6, d34=3)


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {n}: {description}")
        raise
    print(f"PASS criterion {n}: {description}")


@pytest.fixture(scope="module")
def corpus():
    return sample_condition_passing(seed=2024, count=200)


def _cond_value(result, name):
    for c in result.conditions:
        if c.name == name:
            return c.value
    raise AssertionError(f"condition {name} not evaluated")


def test_criterion_1_family_a2_always_acm():
    with criterion(1, "verify --a 8,5,7,9 --m-range 0..50 is ACM everywhere in <10s"):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "curvelab", "verify", "--a", "8,5,7,9",
             "--m-range", "0..50", "--format", "json"],
            capture_output=True, text=True, env=env, cwd=Path(__file__).parent,
        )
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        reports = doc["reports"]
        assert len(reports) == 51
        assert all(r["applicable"] for r in reports)
        assert all(r["verdict_criterion"] and r["verdict_groebner"] for r in reports)
        assert all(r["agree"] for r in reports)
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_family_a3_never_acm():
    with criterion(2, "the (19,7,9,20) family is non-ACM at every applicable m in 0..50"):
        data = family_data(3)
        assert a_from_d(data) == (19, 7, 9, 20)
        reports = cross_validate(data, range(0, 51))
        applicable = [r for r in reports if r.applicable]
        assert len(applicable) == 51  # consecutive entries differ by 1, so gcd is always 1
        for r in applicable:
            assert not r.verdict_criterion and not r.verdict_groebner and r.agree


def test_criterion_3_basic_family_non_acm_with_pinned_value():
    with criterion(3, "(19,29,26,43): non-ACM with failing value -1 for m<=7, and after reordering for 8..20"):
        reports = cross_validate(BASIC, range(0, 21))
        applicable = [r for r in reports if r.applicable]
        assert [r.m for r in applicable] == [0, 2, 6, 8, 12, 14, 18, 20]
        for r in applicable:
            assert not r.verdict_criterion and not r.verdict_groebner and r.agree
        for r in applicable:
            if r.m <= 7:
                assert not r.reordered
                failing = [c for c in r.conditions if not c.passed]
                assert [(c.name, c.value) for c in failing] == [
                    ("w(d2-d21-d23)+d3-d32-d34", -1)
                ]
            else:
                assert r.reordered


def test_criterion_4_big_family_acm_with_pinned_values():
    with criterion(4, "(1191,1239,582,2303): ACM on 0..30 with pinned w and condition values in <60s"):
        t0 = time.monotonic()
        reports = cross_validate(BIG, range(0, 31))
        applicable = [r for r in reports if r.applicable]
        assert applicable, "no applicable members found"
        for r in applicable:
            assert r.verdict_criterion and r.verdict_groebner and r.agree
            res = acm_by_criterion(BIG, r.m)
            if r.m <= 2:
                assert r.w == 2
                assert _cond_value(res, "w(d2-d21-d23)+d1+d23-d4-d32") == 5
                assert _cond_value(res, "(w-1)(d2-d21-d23)+d3-d32-d34") == 7
            elif r.m <= 11:
                assert r.w == 3
                assert _cond_value(res, "w(d2-d21-d23)+d1+d23-d4-d32") == 2
                assert _cond_value(res, "(w-1)(d2-d21-d23)+d3-d32-d34") == 4
            else:
                assert r.w == 3
                assert _cond_value(res, "w(d2-d21-d23)+d3-d32-d34") == 1
                assert _cond_value(res, "(w-1)(d2-d21-d23)+d1+d23-d4-d32") == 5
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_even_family_acm():
    with criterion(5, "(36,34,25,58) with v=(20,14,9,20): ACM at every applicable m in 0..30"):
        data = even_family_data(4)
        assert a_from_d(data) == (36, 34, 25, 58)
        assert shift_vector(data) == (20, 14, 9, 20)
        reports = cross_validate(data, range(0, 31))
        applicable = [r for r in reports if r.applicable]
        assert applicable, "no applicable members found"
        for r in applicable:
            assert r.verdict_criterion and r.verdict_groebner and r.agree


def test_criterion_6_parameter_recovery():
    with criterion(6, "recovery round-trips the two published parameter sets and shift vectors"):
        assert d_from_a((19, 29, 26, 43)) == BASIC
        assert d_from_a((1191, 1239, 582, 2303)) == BIG
        assert a_from_d(BASIC) == (19, 29, 26, 43)
        assert a_from_d(BIG) == (1191, 1239, 582, 2303)
        assert shift_vector(BASIC) == (11, 13, 10, 11)
        assert shift_vector(BIG) == (149, 141, 42, 149)


def test_criterion_7_oracle_equivalence(corpus):
    with criterion(7, "200 random parameter sets: closed form equals the Buchberger oracle and the verdicts agree"):
        assert len(corpus) == 200
        disagreements = 0
        for data, m in corpus:
            closed = closed_form_basis(data, m)
            oracle = reduce_basis(buchberger(generators(data, m), AFFINE_ORDER))
            assert reduce_basis(closed.basis).elements == oracle.elements
            crit = acm_by_criterion(data, m)
            gv = acm_by_groebner(member_degrees(data, m), generators(data, m))
            if crit.all_pass != gv.acm:
                disagreements += 1
        assert disagreements == 0


def test_criterion_8_verifier_suite(corpus):
    with criterion(8, "every emitted closed-form and homogeneous basis passes the Groebner verifier and membership checks"):
        fixtures = []
        for data, hi in ((family_data(2), 50), (BIG, 30), (even_family_data(4), 30)):
            for m in range(hi + 1):
                if degree_refusal(member_degrees(data, m)) is None and acm_by_criterion(data, m).all_pass:
                    fixtures.append((data, m))
        fixtures.extend(corpus)

        for data, m in fixtures:
            closed = closed_form_basis(data, m)
            assert is_groebner(closed.basis).ok

            hb = homogeneous_basis(data, m)
            assert is_groebner(hb).ok
            deg = member_degrees(data, m)
            for b in hb:
                assert sum(b[0]) == sum(b[1])
                assert toric_membership(b, (0, *deg))  # x0 weighs 0
            assert pair_set(dehomogenize(b) for b in hb) == pair_set(closed.basis)
