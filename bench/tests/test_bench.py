"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, FORM_MISS, OK, Call, Outcome, classify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK = {"recover-scan": 4, "long-basis": 3, "small-members": 8}
COUNT_UNITS = {"count"}


@pytest.fixture
def cli():
    return run.load_program()


def quick(capsys, monkeypatch, tmp_path, workload, trace, limit=None):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.run(workload, seed=1, seconds=60, trace=trace, limit=limit or QUICK[workload])
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(QUICK))
def test_quick_run_prints_every_named_metric_with_its_unit(
        capsys, monkeypatch, tmp_path, workload, trace):
    result, lines = quick(capsys, monkeypatch, tmp_path, workload, trace)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == QUICK[workload]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} = {got['value']!r} {m['unit']}" in lines
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)
        assert any(line.startswith("failed_frac = ") for line in lines)
        assert any(line.startswith("form_miss_frac = ") for line in lines)


def test_traced_counts_repeat_exactly(capsys, monkeypatch, tmp_path):
    counts = []
    for _ in range(2):
        result, _ = quick(capsys, monkeypatch, tmp_path, "long-basis", True)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["groebner.rewrites"] > 0 and counts[0]["monomials.compare.calls"] > 0


def test_spans_are_written_with_invocation_ids(capsys, monkeypatch, tmp_path):
    quick(capsys, monkeypatch, tmp_path, "small-members", True)
    lines = (tmp_path / "spans-small-members-seed1.jsonl").read_text().splitlines()
    header, rows = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
    assert header[:5] == ["name", "start", "end", "parent", "invocation"]
    roots = [r for r in rows if r[3] == -1]
    assert [r[0] for r in roots] == ["cli.main"] * QUICK["small-members"]
    assert [r[4] for r in roots] == list(range(QUICK["small-members"]))


def test_removed_name_is_reported_missing(capsys, monkeypatch, tmp_path, cli):
    import curvelab.groebner

    monkeypatch.delattr(curvelab.groebner, "is_groebner")
    result, lines = quick(capsys, monkeypatch, tmp_path, "long-basis", True)
    assert "groebner.is_groebner.calls" not in result["metrics"]
    assert "missing metric (traced name is gone): groebner.is_groebner.calls" in lines
    assert result["correct"]


def test_injected_wrong_verdict_counts_as_failed(capsys, monkeypatch, tmp_path, cli):
    real = cli.analyze_member

    def flipped(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, verdict_criterion=not r.verdict_criterion,
                                   verdict_groebner=not r.verdict_groebner)

    monkeypatch.setattr(cli, "analyze_member", flipped)
    result, lines = quick(capsys, monkeypatch, tmp_path, "long-basis", False)
    assert result["failed"] == result["attempted"] == QUICK["long-basis"]
    assert not result["correct"]
    assert any("expected False" in line for line in lines if line.startswith("FAILED"))


def test_error_row_counts_as_failed(capsys, monkeypatch, tmp_path, cli):
    import curvelab.acm

    real = curvelab.acm.analyze_member

    def broken(data, m, **kwargs):
        if m == 7:
            raise RuntimeError("injected")
        return real(data, m, **kwargs)

    monkeypatch.setattr(curvelab.acm, "analyze_member", broken)
    result, lines = quick(capsys, monkeypatch, tmp_path, "small-members", False, limit=1)
    assert result["failed"] == 1 and not result["correct"]
    assert any("error: injected" in line for line in lines)


class _FixedProbe:
    def __init__(self, factor):
        self.times, self._factor = [0.001] * 3, factor

    def factor(self):
        return self._factor


def test_times_are_divided_by_the_speed_factor():
    p = run.Pass()
    for t in (0.010, 0.020, 0.030):
        p.latencies.append(t)
        p.statuses.append(OK)
    metrics, notes = run.end_to_end("recover-scan", p, 0.5, 20.0, _FixedProbe(4.0))
    assert metrics["setup_s"][0] == 0.5
    assert metrics["call_p50_ms"][0] == pytest.approx(5.0)
    assert metrics["calls_per_s"][0] == pytest.approx(3 / 0.060 * 4)
    assert any(note.startswith("raw: calls_per_s = 50.0") for note in notes)


def _outcome(rc, out="", err="", form_miss_ok=False):
    call = Call(("analyze",), lambda doc: None, form_miss_ok=form_miss_ok)
    o = Outcome(call, 0.001, rc, out, err)
    classify(o)
    return o.status


@pytest.mark.parametrize("rc,out,err,form_miss_ok,status", [
    (0, '{"skip_reason": null}', "", False, OK),
    (1, "", "usage error: x", False, FAILED),
    (3, "", "internal inconsistency: x", False, FAILED),
    (None, "", "Traceback ...", False, FAILED),
    (2, "{}", "refused: not Bresinsky form (m=60)", True, FORM_MISS),
    (2, "{}", "refused: not Bresinsky form (m=60)", False, FAILED),
    (2, "", "refused: gcd>1 (degrees=(2, 4, 6, 8))", True, FAILED),
    (2, "", "error: something broke", True, FAILED),
    (0, '{"reports": [{"m": 3, "skip_reason": "error: boom"}]}', "", False, FAILED),
    (0, "not json", "", False, FAILED),
])
def test_classify_reads_exit_code_and_reply(rc, out, err, form_miss_ok, status):
    assert _outcome(rc, out, err, form_miss_ok) == status


def test_inputs_depend_only_on_the_seed():
    def argvs(seed, n=30):
        gen = workloads.long_basis(seed)
        return [next(gen).argv for _ in range(n)]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)
    assert len(set(argvs(3, 200))) == 200


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-basis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
