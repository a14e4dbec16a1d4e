import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from itertools import permutations
from operator import mul

import pytest
from hypothesis import event, given, settings, strategies as st

import curvelab.cli as cli_mod
from curvelab import Monomial
from curvelab.bresinsky import d_from_a, d_from_a_any_order, member_degrees
from curvelab.cli import main, to_canonical_json

from conftest import SRC
from helpers import basis_dict, dehomogenize, pair_set, sample_applicable


def run_cli(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


class TestAnalyze:
    def test_acm_case1(self):
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0")
        assert rc == 0
        assert "| T    | T    | y" in out

    def test_non_acm_names_condition_and_witness(self):
        rc, out = run_cli("analyze", "--a", "19,29,26,43", "--m", "0")
        assert rc == 0
        assert "cond w(d2-d21-d23)+d3-d32-d34 = -1 (fail)" in out
        assert "x4-bearing initial generators: x1^4*x3*x4" in out

    def test_tied_maximum_refused(self, capsys):
        rc, _ = run_cli("analyze", "--a", "1,1,1,1", "--m", "0")
        assert rc == 2
        assert "max-coordinate fails" in capsys.readouterr().err

    def test_gcd_member_refused(self):
        rc, _ = run_cli("analyze", "--a", "19,29,26,43", "--m", "1")
        assert rc == 2

    def test_not_recoverable_refused(self, capsys):
        rc, _ = run_cli("analyze", "--a", "2,3,4,5", "--m", "0")
        assert rc == 2
        assert "not Bresinsky form" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [60, 200])
    def test_far_shifted_member_is_reordered_and_agrees(self, m):
        rc, out = run_cli("analyze", "--a", "19,29,26,43", "--m", str(m), "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["applicable"] and doc["reordered"]
        assert doc["verdict_criterion"] is False and doc["agree"] is True

    def test_homogenize_flag(self):
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize")
        assert rc == 0
        assert "homogeneous basis:" in out
        assert "x2^3 - x0*x1*x3" in out

    def test_homogenize_runs_the_criterion_once(self, monkeypatch):
        from curvelab import acm

        # the member analysis evaluates the criterion's conditions directly
        calls = []
        real = acm.case_conditions

        def counting(data, m):
            calls.append(m)
            return real(data, m)

        monkeypatch.setattr(acm, "case_conditions", counting)
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize")
        assert rc == 0
        assert "homogeneous basis:" in out
        assert calls == [0]

    def test_homogenize_on_reordered_acm_member_names_the_reason(self):
        argv = ("analyze", "--d", "4,2,4,1,5,1,7,1", "--m", "0", "--homogenize")
        rc, out = run_cli(*argv)
        assert rc == 0
        assert "| T    | T    | y     | reordered" in out
        assert "homogeneous basis unavailable (reordered coordinates)" in out
        rc, out = run_cli(*argv, "--format", "json")
        assert rc == 0
        assert json.loads(out)["homogeneous_basis"] is None

    def test_homogenize_on_refused_member_keeps_json_null(self):
        argv = ("analyze", "--a", "19,29,26,43", "--m", "1", "--homogenize", "--format", "json")
        rc, out = run_cli(*argv)
        assert rc == 2
        doc = json.loads(out)
        assert doc["skip_reason"] == "gcd>1" and doc["homogeneous_basis"] is None

    def test_json_shape(self):
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "2", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["m"] == 2 and doc["applicable"] is True
        assert doc["verdict_criterion"] is True and doc["agree"] is True

    def test_d_input_form(self):
        rc, out = run_cli("analyze", "--d", "1,1,1,2,1,1,1,1", "--m", "0", "--format", "json")
        assert rc == 0
        assert json.loads(out)["degrees"] == [8, 5, 7, 9]

    def test_exactly_one_input_form(self):
        rc, _ = run_cli("analyze", "--a", "8,5,7,9", "--d", "1,1,1,2,1,1,1,1", "--m", "0")
        assert rc == 1
        rc, _ = run_cli("analyze", "--m", "0")
        assert rc == 1


    def test_one_member_checks_its_degrees_once(self, monkeypatch):
        # `_analyze` hands its checked vector to `case_conditions` and the
        # reader of the graded run: besides the input's base check, only the
        # member's own vector is worked out, and its hypotheses are checked once
        from curvelab import acm, bresinsky

        calls = {"member_degrees": 0, "degree_refusal": 0, "_validated_vector": 0}
        for name in calls:
            real = getattr(bresinsky, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            for mod in (bresinsky, acm, cli_mod):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting)
        argv = ("analyze", "--d", "2,4,1,1,36,1,1,2", "--m", "38", "--format", "json")
        rc, out = run_cli(*argv)
        assert rc == 0 and json.loads(out)["verdict_groebner"] is False
        assert calls == {"member_degrees": 2, "degree_refusal": 1, "_validated_vector": 0}


class TestFamily:
    def test_rows_and_summary(self):
        rc, out = run_cli("family", "--a", "19,29,26,43", "--m-range", "0..20")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.lstrip().split(" ")[0].isdigit()]) == 21
        assert lines[-1] == "summary: acm=0 non-acm=8 skipped=13 reordered=5"

    def test_empty_range_is_usage_error(self, capsys):
        rc, _ = run_cli("family", "--a", "19,29,26,43", "--m-range", "5..4")
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_json_round_trips_byte_identically(self):
        rc, out = run_cli(
            "family", "--a", "1191,1239,582,2303", "--m-range", "0..15", "--format", "json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert to_canonical_json(doc) + "\n" == out
        ws = [r["w"] for r in doc["reports"] if r["applicable"]]
        assert ws == [2, 2, 3, 3, 3, 3, 3]
        assert all(r["verdict_criterion"] for r in doc["reports"] if r["applicable"])

    def test_bad_range_syntax(self):
        rc, _ = run_cli("family", "--a", "8,5,7,9", "--m-range", "0-5")
        assert rc == 1

    def test_non_ascii_digit_in_range_is_a_usage_error(self, capsys):
        # '²' passes str.isdigit but int() rejects it
        rc, out = run_cli("family", "--a", "8,5,7,9", "--m-range", "²..3")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == (
            "usage error: --m-range expects lo..hi with non-negative integers, got '²..3'\n"
        )


class TestVerify:
    def test_agreeing_family(self):
        rc, out = run_cli("verify", "--a", "8,5,7,9", "--m-range", "0..10")
        assert rc == 0
        assert "verified: both routes agree" in out


class TestGb:
    def test_case1_listing(self):
        rc, out = run_cli("gb", "--a", "8,5,7,9", "--m", "0")
        assert rc == 0
        assert out.splitlines()[0] == "case 1 (reduced Groebner basis, 5 elements)"

    def test_case2_six_elements(self):
        rc, out = run_cli("gb", "--a", "1191,1239,582,2303", "--m", "0")
        assert rc == 0
        assert out.splitlines()[0] == "case 2 (reduced Groebner basis, 6 elements)"
        assert "  x2^21 - x1^2*x3^5*x4^9" in out.splitlines()

    def test_homogenized_listing(self):
        rc, out = run_cli("gb", "--a", "8,5,7,9", "--m", "0", "--homogenize")
        assert rc == 0
        assert "x2^3 - x0*x1*x3" in out

    def test_homogenize_builds_the_closed_form_once(self, monkeypatch):
        from curvelab import bresinsky, cli

        calls = []
        real = bresinsky._closed_form

        def counting(data, m):
            calls.append(m)
            return real(data, m)

        for module in (cli, bresinsky):
            monkeypatch.setattr(module, "_closed_form", counting)
        rc, _ = run_cli("gb", "--a", "8,5,7,9", "--m", "0", "--homogenize")
        assert rc == 0
        assert calls == [0]

    def test_case2_works_out_w_once(self, monkeypatch):
        # the extra binomials read w and the branch off the case conditions
        from curvelab import bresinsky

        calls = []
        real = bresinsky.compute_w

        def counting(data, m):
            calls.append(m)
            return real(data, m)

        monkeypatch.setattr(bresinsky, "compute_w", counting)
        rc, _ = run_cli("gb", "--a", "1191,1239,582,2303", "--m", "12", "--homogenize")
        assert rc == 0
        assert calls == [12]

    def test_json_bases_order_no_monomial_object(self, monkeypatch):
        # the printed bases are oriented and sorted on exponent tuples
        from curvelab.monomials import MonomialOrder

        def refuse(self, m1, m2):
            raise AssertionError("MonomialOrder.compare called")

        monkeypatch.setattr(MonomialOrder, "compare", refuse)
        for argv in (
            ("gb", "--a", "1191,1239,582,2303", "--m", "12", "--homogenize", "--format", "json"),
            ("gb", "--a", "8,5,7,9", "--m", "0", "--format", "json"),
            ("analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize", "--format", "json"),
        ):
            rc, out = run_cli(*argv)
            assert rc == 0 and json.loads(out), argv

    def test_oracle_matches_closed_form_after_reduction(self):
        rc_closed, out_closed = run_cli(
            "gb", "--a", "8,5,7,9", "--m", "0", "--format", "json"
        )
        rc_oracle, out_oracle = run_cli(
            "gb", "--a", "8,5,7,9", "--m", "0", "--oracle", "--format", "json"
        )
        assert rc_closed == rc_oracle == 0
        closed = json.loads(out_closed)["basis"]["elements"]
        oracle = json.loads(out_oracle)["basis"]["elements"]
        assert closed == oracle  # case 1 closed form is already reduced

    def test_closed_form_refused_when_not_acm(self, capsys):
        rc, _ = run_cli("gb", "--a", "19,29,26,43", "--m", "0")
        assert rc == 2
        assert "conditions not met" in capsys.readouterr().err

    def test_oracle_works_when_not_acm(self):
        rc, out = run_cli("gb", "--a", "19,29,26,43", "--m", "0", "--oracle")
        assert rc == 0
        assert out.splitlines()[0] == "oracle (reduced Groebner basis, 8 elements)"

    def test_oracle_and_scan_replies_build_no_binomial(self, monkeypatch):
        # a basis is exponent pairs from the generators to the reply: no
        # Binomial is built and no pair of Monomials is compared
        from curvelab.groebner import Binomial
        from curvelab.monomials import MonomialOrder

        calls = []
        for cls, name in ((Binomial, "__post_init__"), (MonomialOrder, "compare")):
            real = getattr(cls, name)

            def spy(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cls, name, spy)
        for argv in (
            ("gb", "--d", "2,4,1,1,36,1,1,2", "--m", "38", "--oracle", "--format", "json"),
            ("family", "--a", "8,5,7,9", "--m-range", "0..10", "--format", "json"),
        ):
            rc, out = run_cli(*argv)
            assert rc == 0 and json.loads(out), argv
        assert calls == []
        # the spies see a Binomial built and oriented
        x1, x2 = Monomial((1, 0, 0, 0)), Monomial((0, 1, 0, 0))
        Binomial.from_pair(x1, x2, MonomialOrder((2, 1, 3, 4)))
        assert calls == ["compare", "__post_init__"]


class TestRecover:
    def test_basic(self):
        rc, out = run_cli("recover", "--a", "19,29,26,43")
        assert rc == 0
        assert "d21=2 d41=3 d32=3 d42=1 d13=2 d23=3 d14=1 d34=1" in out
        assert "v=11,13,10,11" in out

    def test_big(self):
        rc, out = run_cli("recover", "--a", "1191,1239,582,2303")
        assert rc == 0
        assert "d21=9 d41=7 d32=1 d42=10 d13=9 d23=5 d14=6 d34=3" in out
        assert "v=149,141,42,149" in out

    def test_not_recoverable(self, capsys):
        rc, out = run_cli("recover", "--a", "2,3,4,5")
        assert rc == 2
        assert "not Bresinsky form" in out

    def test_reordered_vector(self):
        rc, out = run_cli("recover", "--a", "107,133,106,131", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        perms = [tuple(s["permutation"]) for s in doc["solutions"]]
        assert (3, 1, 4, 2) in perms

    def test_far_shifted_member_has_one_solution(self):
        # the (19,29,26,43) member at m=200; its maximum sits in x2
        rc, out = run_cli("recover", "--a", "2219,2629,2026,2243", "--format", "json")
        assert rc == 0
        [sol] = json.loads(out)["solutions"]
        perm = [i - 1 for i in sol["permutation"]]
        assert sol["a"] == [[2219, 2629, 2026, 2243][i] for i in perm]

    def test_permuted_strict_max_vector(self):
        # x4 is already the strict maximum, but x1..x3 are out of role order
        rc, out = run_cli("recover", "--a", "29,19,26,43")
        assert rc == 0
        assert out.startswith("permutation: (2, 1, 3, 4)\n")
        assert "a=19,29,26,43" in out

    def test_every_order_of_the_first_three_matches_any_order_search(self):
        # each strict-max member, then the five other orders of x1..x3
        for data, m in sample_applicable(seed=10, count=40):
            deg = member_degrees(data, m)
            for perm in permutations(range(3)):
                vec = [deg[i] for i in perm] + [deg[3]]
                expected = [
                    {"permutation": [i + 1 for i in hit_perm], "d": hit.as_dict()}
                    for hit_perm, hit in d_from_a_any_order(vec)
                ]
                assert expected, vec
                rc, out = run_cli("recover", "--a", ",".join(map(str, vec)), "--format", "json")
                assert rc == 0, vec
                got = [{k: sol[k] for k in ("permutation", "d")}
                       for sol in json.loads(out)["solutions"]]
                assert got == expected, vec

    def test_requires_degree_vector(self):
        rc, _ = run_cli("recover")
        assert rc == 1

    def test_empty_degree_vector_is_malformed_not_missing(self, capsys):
        # an empty --a was given, so recover words it as every command does
        for argv in (("recover",), ("analyze", "--m", "0"), ("gb", "--m", "0")):
            rc, out = run_cli(*argv, "--a", "")
            assert rc == 1 and out == ""
            err = capsys.readouterr().err
            assert err == "usage error: --a expects 4 comma-separated integers, got ''\n", argv

    def test_takes_no_step_bound(self, capsys):
        # recover reduces nothing, so it offers no reduction budget
        rc, out = run_cli("recover", "--a", "19,29,26,43", "--step-bound", "3")
        assert rc == 1 and out == ""
        assert "--step-bound" in capsys.readouterr().err

    def test_ignores_step_bound_env(self, monkeypatch):
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "abc")
        rc, out = run_cli("recover", "--a", "19,29,26,43")
        assert rc == 0
        assert "d21=2 d41=3 d32=3 d42=1 d13=2 d23=3 d14=1 d34=1" in out


class TestUsage:
    def test_unknown_command(self):
        rc, _ = run_cli("frobnicate")
        assert rc == 1

    def test_negative_m(self):
        rc, _ = run_cli("analyze", "--a", "8,5,7,9", "--m", "-3")
        assert rc == 1

    def test_unknown_option(self):
        rc, _ = run_cli("recover", "--a", "19,29,26,43", "--no-such-option", "64")
        assert rc == 1

    def test_negative_step_bound(self, capsys):
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0", "--step-bound", "-5")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == "usage error: --step-bound must be non-negative, got -5\n"

    def test_malformed_vector(self):
        rc, _ = run_cli("analyze", "--a", "8,5,7", "--m", "0")
        assert rc == 1
        rc, _ = run_cli("analyze", "--a", "8,5,7,x", "--m", "0")
        assert rc == 1


class TestExitCodeContract:
    def test_disagreement_maps_to_3(self, monkeypatch):
        from curvelab import DisagreementError
        import curvelab.cli as cli_mod

        def boom(*args, **kwargs):
            raise DisagreementError("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "cross_validate", boom)
        rc, _ = run_cli("family", "--a", "8,5,7,9", "--m-range", "0..1")
        assert rc == 3

    def test_recovery_anomaly_in_scan_maps_to_3(self, monkeypatch, capsys):
        from curvelab import AnomalyError
        import curvelab.acm as acm_mod

        def boom(*args, **kwargs):
            raise AnomalyError("injected")

        monkeypatch.setattr(acm_mod, "_any_order_hits", boom)
        rc, out = run_cli("family", "--a", "19,29,26,43", "--m-range", "0..10")
        assert rc == 3
        assert out == ""
        assert "internal inconsistency: injected" in capsys.readouterr().err

    def test_bug_in_scan_maps_to_3(self, monkeypatch, capsys):
        import curvelab.acm as acm_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(acm_mod, "_any_order_hits", boom)
        rc, _ = run_cli("verify", "--a", "19,29,26,43", "--m-range", "0..10")
        assert rc == 3
        assert capsys.readouterr().err.startswith("internal error: injected\n")

    def test_internal_curvelab_error_maps_to_3(self, monkeypatch, capsys):
        # a curvelab error that no refusal path raises reaches main only
        # through a bug, so it must not share the refusal exit code
        from curvelab import AmbientMismatchError
        import curvelab.acm as acm_mod

        def boom(*args, **kwargs):
            raise AmbientMismatchError("injected ring mix-up")

        monkeypatch.setattr(acm_mod, "_generator_exponents", boom)
        rc, out = run_cli("family", "--a", "8,5,7,9", "--m-range", "0..3")
        assert rc == 3
        assert out == ""
        assert capsys.readouterr().err.startswith("internal error: injected ring mix-up\n")

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_stdout_ends_the_process_by_sigpipe(self):
        # the scan writes about 100 KB, more than a pipe buffer holds, so
        # a write always meets the closed pipe
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["family", "--a", "19,29,26,43", "--m-range", "0..200", "--format", "json"]
        with subprocess.Popen(
            [sys.executable, "-m", "curvelab", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == -signal.SIGPIPE and err == b""

    def test_degree_past_the_packed_limit_maps_to_2(self, capsys):
        # the Buchberger route packs each exponent into 63 bits; the closed
        # form of `gb` packs nothing, so it still answers
        m = "10000000000000000000"
        for argv in (
            ("analyze", "--a", "8,5,7,9", "--m", m),
            ("analyze", "--a", "8,5,7,9", "--m", m, "--format", "json"),
            ("family", "--a", "8,5,7,9", "--m-range", f"{m}..{m}"),
        ):
            rc, out = run_cli(*argv)
            assert rc == 2 and out == "", argv
            assert capsys.readouterr().err == (
                "refused: monomial degree 10000000000000000002 exceeds the packed limit "
                "9223372036854775807\n"
            ), argv
        assert run_cli("gb", "--a", "8,5,7,9", "--m", m)[0] == 0
        assert run_cli("gb", "--a", "8,5,7,9", "--m", m, "--homogenize", "--format", "json")[0] == 0

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python writes an int of any length")
    def test_numbers_too_long_to_print_map_to_2(self, capsys):
        # --m has one digit less than the limit, so it parses; every entry
        # of v is at least 10, so each degree has one digit more than it
        limit = sys.get_int_max_str_digits()
        m = "9" * (limit - 1)
        for argv in (
            ("analyze", "--a", "19,29,26,43", "--m", m),
            ("gb", "--a", "1191,1239,582,2303", "--m", m, "--homogenize"),
            ("family", "--a", "19,29,26,43", "--m-range", f"{m}..{m}"),
            ("verify", "--a", "19,29,26,43", "--m-range", f"{m}..{m}"),
        ):
            for fmt in ("json", "table"):
                rc, out = run_cli(*argv, "--format", fmt)
                assert (rc, out) == (2, ""), (argv[0], fmt)
                assert capsys.readouterr().err == (
                    f"refused: a number to print has more than {limit} digits, this Python's "
                    "limit for writing an int as text (PYTHONINTMAXSTRDIGITS)\n"
                ), (argv[0], fmt)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads an int of any length")
    def test_range_bounds_too_long_to_read_are_a_usage_error(self, capsys):
        m = "9" * (sys.get_int_max_str_digits() + 1)
        assert run_cli("family", "--a", "19,29,26,43", "--m-range", f"0..{m}") == (1, "")
        assert capsys.readouterr().err.startswith("usage error: --m-range bounds are too long")

    def test_step_bound_exhaustion_maps_to_2(self):
        rc, _ = run_cli("gb", "--a", "8,5,7,9", "--m", "0", "--oracle", "--step-bound", "1")
        assert rc == 2

    def test_table_runs_buchberger_to_the_end_under_the_bound(self, capsys):
        # the JSON verdict stops at its witness within one step; the table
        # lists every x4 generator, which needs the full run, so it trips
        # the bound and prints nothing
        argv = ("analyze", "--a", "19,29,26,43", "--m", "0", "--step-bound", "1")
        rc, out = run_cli(*argv, "--format", "json")
        assert rc == 0 and json.loads(out)["verdict_groebner"] is False
        rc, out = run_cli(*argv, "--format", "table")
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == "refused: normal form exceeded 1 reduction steps\n"
        rc, out = run_cli("analyze", "--a", "19,29,26,43", "--m", "0", "--step-bound", "2")
        assert rc == 0 and "x4-bearing initial generators: " in out


class TestPrintedBases:
    """The replies of `gb --homogenize` and `analyze --homogenize`, which
    are built from exponent tuples, checked element by element: each is
    homogeneous for the total degree and for the member's degree vector,
    oriented and sorted under the extended order, and setting x0 = 1
    gives back the closed form."""

    MEMBERS = sample_applicable(61, 80) + [
        (d_from_a((19, 29, 26, 43)), 0),  # case 2, refused
        (d_from_a((1191, 1239, 582, 2303)), 0),  # case 2, w = 2
        (d_from_a((1191, 1239, 582, 2303)), 4),  # case 2, w = 3, negative branch
        (d_from_a((1191, 1239, 582, 2303)), 12),  # case 2, w = 3, positive branch
    ]

    def test_replies_are_the_homogenized_closed_form(self):
        from curvelab import GREATER, PROJECTIVE_ORDER, RefusalError, case_conditions
        from curvelab import closed_form_basis

        key = PROJECTIVE_ORDER.key
        seen = set()
        for data, m in self.MEMBERS:
            d = ",".join(map(str, data.as_dict().values()))
            weights = (0, *member_degrees(data, m))  # x0 weighs 0
            rc_gb, out_gb = run_cli("gb", "--d", d, "--m", str(m), "--homogenize",
                                    "--format", "json")
            rc_an, out_an = run_cli("analyze", "--d", d, "--m", str(m), "--homogenize",
                                    "--format", "json")
            assert rc_an == 0
            try:
                closed = closed_form_basis(data, m)
            except RefusalError:
                assert rc_gb == 2 and out_gb == ""
                assert json.loads(out_an)["homogeneous_basis"] is None
                continue
            reply = json.loads(out_gb)
            assert rc_gb == 0
            assert json.loads(out_an)["homogeneous_basis"] == reply["basis"]
            assert reply["basis"]["order"] == basis_dict(PROJECTIVE_ORDER, ())["order"]
            hom = []
            for e in reply["basis"]["elements"]:
                lead, trail = e["lead"]["exponents"], e["trail"]["exponents"]
                assert len(lead) == len(trail) == 5
                assert sum(lead) == sum(trail)
                assert sum(map(mul, lead, weights)) == sum(map(mul, trail, weights))
                hom.append((Monomial(tuple(lead)), Monomial(tuple(trail))))
            assert all(PROJECTIVE_ORDER.compare(lead, trail) == GREATER for lead, trail in hom)
            keys = [(key(lead), key(trail)) for lead, trail in hom]
            assert keys == sorted(keys)
            dehom = [dehomogenize((lead.exponents, trail.exponents)) for lead, trail in hom]
            assert len(dehom) == len(closed.basis)
            assert pair_set(dehom) == pair_set(closed.basis)
            assert reply["tag"]["reduced"] == closed.basis.is_reduced
            assert reply["tag"]["case"] == closed.case
            cc = case_conditions(data, m)
            seen.add((cc.case, cc.branch_positive))
        assert seen == {(1, None), (2, True), (2, False)}

    @pytest.mark.parametrize("argv, shown", [
        (("gb", "--a", "1191,1239,582,2303", "--m", "12", "--homogenize", "--format", "json"),
         '"homogenized": true'),
        (("analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize"), "homogeneous basis:\n"),
    ], ids=["gb", "analyze"])
    def test_a_homogenized_reply_sorts_once(self, monkeypatch, argv, shown):
        # the closed form is sorted once, and padding it keeps that order
        from curvelab import AFFINE_ORDER, groebner

        real = groebner._canonical_pairs
        calls = []

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        for name, mod in list(sys.modules.items()):
            if name.startswith("curvelab") and vars(mod).get("_canonical_pairs") is real:
                monkeypatch.setattr(mod, "_canonical_pairs", counting)
        rc, out = run_cli(*argv)
        assert rc == 0 and shown in out
        assert calls == [AFFINE_ORDER]


class TestOracleEquivalence:
    def test_case2_reduced_forms_agree(self):
        from curvelab import closed_form_basis, d_from_a, reduce_basis

        rc, out = run_cli(
            "gb", "--a", "1191,1239,582,2303", "--m", "0", "--oracle", "--format", "json"
        )
        assert rc == 0
        oracle = json.loads(out)["basis"]
        data = d_from_a((1191, 1239, 582, 2303))
        closed = reduce_basis(closed_form_basis(data, 0).basis)
        assert oracle == basis_dict(closed.order, closed.elements)


class TestEnvOverrides:
    def test_format_env(self, monkeypatch):
        monkeypatch.setenv("CURVELAB_FORMAT", "json")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0")
        assert rc == 0
        assert json.loads(out)["m"] == 0

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("CURVELAB_FORMAT", "json")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0", "--format", "table")
        assert rc == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_step_bound_env(self, monkeypatch):
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "1")
        rc, _ = run_cli("gb", "--a", "8,5,7,9", "--m", "0", "--oracle")
        assert rc == 2

    def test_malformed_step_bound_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "abc")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == (
            "usage error: CURVELAB_STEP_BOUND: invalid int value: 'abc'\n"
        )

    def test_negative_step_bound_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "-5")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == (
            "usage error: CURVELAB_STEP_BOUND must be non-negative, got -5\n"
        )

    def test_malformed_format_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CURVELAB_FORMAT", "xml")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0")
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == (
            "usage error: CURVELAB_FORMAT: invalid choice: 'xml' (choose from 'json', 'table')\n"
        )

    def test_flags_beat_malformed_env(self, monkeypatch):
        monkeypatch.setenv("CURVELAB_FORMAT", "xml")
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "abc")
        rc, out = run_cli("analyze", "--a", "8,5,7,9", "--m", "0",
                          "--format", "json", "--step-bound", "0")
        assert rc == 2 and out == ""


class TestParserCache:
    def test_env_changes_between_calls_take_effect(self, monkeypatch):
        argv = ("analyze", "--a", "8,5,7,9", "--m", "0")
        monkeypatch.setenv("CURVELAB_FORMAT", "json")
        rc, out = run_cli(*argv)
        assert rc == 0 and json.loads(out)["m"] == 0
        monkeypatch.delenv("CURVELAB_FORMAT")
        rc, out = run_cli(*argv)
        assert rc == 0 and out.startswith("   m | degrees")

        gb = ("gb", "--a", "8,5,7,9", "--m", "0", "--oracle")
        monkeypatch.setenv("CURVELAB_STEP_BOUND", "1")
        assert run_cli(*gb)[0] == 2
        monkeypatch.delenv("CURVELAB_STEP_BOUND")
        assert run_cli(*gb)[0] == 0

    def test_parser_is_built_at_most_once(self, monkeypatch):
        import curvelab.cli as cli_mod

        builds = []
        real = cli_mod.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli_mod, "build_parser", counting)
        monkeypatch.setattr(cli_mod, "_PARSER", None)
        for argv in (("analyze", "--a", "8,5,7,9", "--m", "0"),
                     ("recover", "--a", "19,29,26,43"),
                     ("frobnicate",),
                     ("family", "--a", "8,5,7,9", "--m-range", "0..2", "--format", "json")):
            run_cli(*argv)
        assert len(builds) == 1

    def test_a_command_word_skips_the_root_parser(self, monkeypatch):
        import curvelab.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("root parser called")

        monkeypatch.setattr(cli_mod._parser(), "parse_args", refuse)
        assert run_cli("analyze", "--a", "8,5,7,9", "--m", "0")[0] == 0
        # the command word is still recorded: verify's table says so
        rc, out = run_cli("verify", "--a", "8,5,7,9", "--m-range", "0..2")
        assert rc == 0 and out.endswith("verified: both routes agree on every applicable member\n")
        rc, out = run_cli("family", "--a", "8,5,7,9", "--m-range", "0..2")
        assert rc == 0 and "verified" not in out


#: the commands' parsers, for the reader tests
COMMANDS = cli_mod.build_parser().commands

#: values that argparse reads in ways the reader must decline or match
ODD_VALUES = ("", "x", "-3", "-x", "-", "--", "--m", "-h", "json", "xml", "0", "٣", " 7", "1_0")


def _good_value(option: str):
    if option in ("--m", "--step-bound"):
        return st.integers(0, 99).map(str)
    if option == "--format":
        return st.sampled_from(("json", "table"))
    if option == "--m-range":
        return st.sampled_from(("0..10", "5..4", "0..x"))
    return st.sampled_from(("8,5,7,9", "1,1,1,2,1,1,1,1", "19,29,26,43", "2,3"))


@st.composite
def command_argvs(draw):
    """A command and its tokens: `--option value` pairs and flags, the
    required options mostly present, then up to three mutations."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[name]._option_string_actions
    options = sorted(o for o, a in actions.items() if o.startswith("--") and o != "--help")
    chosen = [o for o in options if actions[o].required and draw(st.integers(0, 9)) > 0]
    chosen += draw(st.lists(st.sampled_from(options), max_size=4))
    chosen = draw(st.permutations(chosen))
    tokens = []
    for option in chosen:
        tokens.append(option)
        if type(actions[option]) is argparse._StoreAction:
            tokens.append(draw(_good_value(option)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("abbreviate", "join", "insert", "replace", "drop", "repeat")))
        i = draw(st.integers(0, len(tokens)))
        if kind == "insert":
            tokens.insert(i, draw(st.sampled_from(ODD_VALUES + ("--help", "--zz"))))
        elif i == len(tokens):
            continue
        elif kind == "abbreviate" and len(tokens[i]) > 3:
            tokens[i] = tokens[i][:draw(st.integers(3, len(tokens[i]) - 1))]
        elif kind == "join" and i + 1 < len(tokens):
            tokens[i:i + 2] = [f"{tokens[i]}={tokens[i + 1]}"]
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "drop":
            del tokens[i]
        elif kind == "repeat":
            tokens[i:i] = tokens[i:i + 2]
    return name, tokens


class TestDirectReader:
    """`cli._read_command` returns None or what argparse returns."""

    def test_every_action_is_one_the_reader_knows(self):
        # a new kind of option fails here before it can diverge from argparse
        kinds = {argparse._StoreAction, argparse._StoreTrueAction, argparse._HelpAction}
        for name, command in COMMANDS.items():
            assert not command._mutually_exclusive_groups, name
            for action in command._actions:
                assert type(action) in kinds, (name, action)
                # argparse would pass a str default through `type`
                if action.default is not argparse.SUPPRESS:
                    assert not isinstance(action.default, str), (name, action.dest)
                assert not getattr(action, "deprecated", False), (name, action.dest)

    @settings(max_examples=400, deadline=None)
    @given(command_argvs())
    def test_reads_nothing_or_what_argparse_reads(self, case):
        name, tokens = case
        command = COMMANDS[name]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                expected = vars(command.parse_args(list(tokens)))
        except (cli_mod.UsageError, SystemExit):
            expected = None
        got = cli_mod._read_command(command, tokens)
        event("read" if got is not None else "declined")
        if got is not None:
            assert vars(got) == expected, tokens

    @pytest.mark.parametrize("tokens", [
        ["--a", "8,5,7,9", "--m", "5", "--m", "0"],
        ["--a", "8,5,7,9", "--m", "0", "--homogenize", "--homogenize", "--format", "json"],
        ["--m", "0", "--d", "1,1,1,2,1,1,1,1", "--step-bound", "7"],
    ])
    def test_well_formed_argvs_are_read(self, tokens):
        command = COMMANDS["analyze"]
        got = cli_mod._read_command(command, tokens)
        assert got is not None and vars(got) == vars(command.parse_args(tokens))

    @pytest.mark.parametrize("tokens", [
        ["--a", "8,5,7,9", "--m", "0", "--form", "json"],
        ["--a=8,5,7,9", "--m", "0"],
        ["--a", "8,5,7,9", "--m"],
        ["--a", "8,5,7,9", "--m", "x"],
        ["--a", "8,5,7,9", "--m", "-3"],
        ["--", "--a", "8,5,7,9", "--m", "0"],
        ["--a", "8,5,7,9", "--m", "0", "-h"],
        ["--a", "8,5,7,9", "--m", "0", "--format", "xml"],
        ["--a", "8,5,7,9", "--m", "0", "extra"],
        ["--a", "8,5,7,9"],
        ["--a", "", "--m", "0"],
    ])
    def test_other_argvs_are_left_to_argparse(self, tokens):
        assert cli_mod._read_command(COMMANDS["analyze"], tokens) is None

    def test_workload_argvs_never_reach_argparse(self, monkeypatch):
        cli_mod._parser()

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a workload argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        for argv in (
            ("analyze", "--a", "19,29,26,43", "--m", "60", "--format", "json"),
            ("analyze", "--d", "1,1,1,2,1,1,1,1", "--m", "3", "--format", "json"),
            ("gb", "--d", "1,1,1,2,1,1,1,1", "--m", "0", "--homogenize", "--format", "json"),
            ("gb", "--d", "2,4,1,1,36,1,1,2", "--m", "38", "--oracle", "--format", "json"),
            ("recover", "--a", "19,29,26,43", "--format", "json"),
            ("family", "--a", "8,5,7,9", "--m-range", "0..4", "--format", "json"),
            ("verify", "--a", "8,5,7,9", "--m-range", "0..4", "--format", "json"),
        ):
            rc, out = run_cli(*argv)
            assert rc == 0 and json.loads(out), argv


class TestImports:
    def test_the_parser_loads_only_the_standard_library(self):
        # a fresh interpreter without site packages imports the CLI and
        # builds its parser: every module it loads is curvelab's or the
        # standard library's, and none that only a bug or the console
        # entry point needs; -B keeps it from writing bytecode into src/,
        # whatever the caller's environment says
        code = (
            "import sys; import curvelab.cli as cli; cli.build_parser(); "
            "print(' '.join(sorted(sys.modules)))"
        )
        env = {"PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-B", "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        loaded = set(proc.stdout.split())
        assert "curvelab.cli" in loaded
        tops = {name.partition(".")[0] for name in loaded} - {"__main__", "curvelab"}
        assert tops <= set(sys.stdlib_module_names), sorted(tops - set(sys.stdlib_module_names))
        assert not loaded & {"traceback", "signal", "textwrap"}, sorted(loaded)
