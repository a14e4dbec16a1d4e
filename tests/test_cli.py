import io
import json
import os
import signal
import subprocess
import sys
from itertools import permutations

import pytest

from curvelab.bresinsky import d_from_a_any_order, member_degrees
from curvelab.cli import main, to_canonical_json

from conftest import SRC
from helpers import sample_applicable


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

        calls = []
        real = acm.acm_by_criterion

        def counting(data, m):
            calls.append(m)
            return real(data, m)

        monkeypatch.setattr(acm, "acm_by_criterion", counting)
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
        from curvelab import acm, bresinsky, cli

        calls = []

        def counting(data, m):
            calls.append(m)
            return bresinsky.closed_form_basis(data, m)

        for module in (cli, acm):
            monkeypatch.setattr(module, "closed_form_basis", counting)
        rc, _ = run_cli("gb", "--a", "8,5,7,9", "--m", "0", "--homogenize")
        assert rc == 0
        assert calls == [0]

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
                    {"permutation": [i + 1 for i in hit_perm], "d": hit.to_json()}
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

        monkeypatch.setattr(acm_mod, "generators", boom)
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
        assert oracle == closed.to_json()


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
