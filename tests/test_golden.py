"""Golden CLI corpus: exit code, stdout and stderr of fixed invocations,
compared byte for byte.

Each case is stored as one transcript in tests/golden/<name>.txt.  After
a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze-case1-acm": ["analyze", "--a", "8,5,7,9", "--m", "0"],
    "analyze-case1-json": ["analyze", "--a", "8,5,7,9", "--m", "2", "--format", "json"],
    "analyze-homogenize": ["analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize"],
    "analyze-d-input-json": [
        "analyze", "--d", "1,1,1,2,1,1,1,1", "--m", "0", "--homogenize", "--format", "json"
    ],
    "analyze-basic-non-acm": ["analyze", "--a", "19,29,26,43", "--m", "0"],
    "analyze-basic-m8": ["analyze", "--a", "19,29,26,43", "--m", "8"],
    "analyze-basic-m60": ["analyze", "--a", "19,29,26,43", "--m", "60"],
    "analyze-basic-m60-json": ["analyze", "--a", "19,29,26,43", "--m", "60", "--format", "json"],
    "analyze-gcd-member": ["analyze", "--a", "19,29,26,43", "--m", "1"],
    "analyze-gcd-member-homogenize": ["analyze", "--a", "19,29,26,43", "--m", "1",
                                      "--homogenize"],
    "analyze-gcd-member-json": ["analyze", "--a", "19,29,26,43", "--m", "1", "--format", "json"],
    "analyze-reordered-homogenize-json": ["analyze", "--a", "19,29,26,43", "--m", "60",
                                          "--homogenize", "--format", "json"],
    "analyze-non-acm-homogenize-json": ["analyze", "--a", "19,29,26,43", "--m", "0",
                                        "--homogenize", "--format", "json"],
    "analyze-gcd-input": ["analyze", "--a", "2,4,6,8", "--m", "0"],
    "analyze-tied-max": ["analyze", "--a", "1,1,1,1", "--m", "0"],
    "analyze-not-form": ["analyze", "--a", "2,3,4,5", "--m", "0"],
    "analyze-reordered-acm": ["analyze", "--d", "4,2,4,1,5,1,7,1", "--m", "0"],
    "analyze-reordered-homogenize": ["analyze", "--d", "4,2,4,1,5,1,7,1", "--m", "0",
                                     "--homogenize"],
    "analyze-long-basis": ["analyze", "--d", "2,4,1,1,36,1,1,2", "--m", "38"],
    "analyze-long-basis-json": ["analyze", "--d", "2,4,1,1,36,1,1,2", "--m", "38",
                                "--format", "json"],
    "analyze-far-member-json": ["analyze", "--a", "19,29,26,43", "--m", "1000000000002",
                                "--format", "json"],
    "family-basic-0-70": ["family", "--a", "19,29,26,43", "--m-range", "0..70"],
    "family-big-json": ["family", "--a", "1191,1239,582,2303", "--m-range", "0..15",
                        "--format", "json"],
    "family-empty-range": ["family", "--a", "19,29,26,43", "--m-range", "5..4"],
    "family-gcd-base": ["family", "--d", "1,1,1,3,3,2,1,1", "--m-range", "0..2"],
    "family-gcd-input-empty-range": ["family", "--a", "2,4,6,8", "--m-range", "5..4"],
    "verify-case1": ["verify", "--a", "8,5,7,9", "--m-range", "0..10"],
    "verify-basic-json": ["verify", "--a", "19,29,26,43", "--m-range", "0..10",
                          "--format", "json"],
    "gb-case1": ["gb", "--a", "8,5,7,9", "--m", "0"],
    "gb-case2-json": ["gb", "--a", "1191,1239,582,2303", "--m", "0", "--format", "json"],
    "gb-case2-w3-negative": ["gb", "--a", "1191,1239,582,2303", "--m", "4"],
    "gb-case2-w3-positive-json": ["gb", "--a", "1191,1239,582,2303", "--m", "12",
                                  "--format", "json"],
    "gb-homogenize": ["gb", "--a", "8,5,7,9", "--m", "0", "--homogenize"],
    "gb-oracle-homogenize": ["gb", "--a", "19,29,26,43", "--m", "0", "--oracle", "--homogenize"],
    "gb-oracle-json": ["gb", "--a", "19,29,26,43", "--m", "0", "--oracle", "--format", "json"],
    "gb-oracle-homogenize-json": ["gb", "--a", "19,29,26,43", "--m", "0", "--oracle",
                                  "--homogenize", "--format", "json"],
    "gb-oracle-long-basis-json": ["gb", "--d", "2,4,1,1,36,1,1,2", "--m", "38", "--oracle",
                                  "--format", "json"],
    "gb-case2-homogenize": ["gb", "--a", "1191,1239,582,2303", "--m", "0", "--homogenize"],
    "gb-case2-w3-positive-homogenize-json": ["gb", "--a", "1191,1239,582,2303", "--m", "12",
                                             "--homogenize", "--format", "json"],
    "gb-case2-w3-negative-homogenize-json": ["gb", "--a", "1191,1239,582,2303", "--m", "4",
                                             "--homogenize", "--format", "json"],
    "gb-conditions-refused": ["gb", "--a", "19,29,26,43", "--m", "0"],
    "gb-oracle-gcd-base": ["gb", "--oracle", "--d", "1,1,1,1,1,1,1,1", "--m", "0"],
    "gb-gcd-input-negative-m": ["gb", "--a", "2,4,6,8", "--m", "-1"],
    # degrees past the packed limit: the closed form and its padding take
    # exponent tuples of any size, the kernel refuses
    "gb-case1-past-packed-limit": ["gb", "--a", "8,5,7,9", "--m", "10000000000000000000"],
    "gb-case2-homogenize-past-packed-limit-json": [
        "gb", "--a", "1191,1239,582,2303", "--m", "10000000000000000000", "--homogenize",
        "--format", "json"
    ],
    "gb-oracle-past-packed-limit": ["gb", "--a", "8,5,7,9", "--m", "10000000000000000000",
                                    "--oracle"],
    "analyze-past-packed-limit": ["analyze", "--a", "8,5,7,9", "--m", "10000000000000000000"],
    "recover-basic": ["recover", "--a", "19,29,26,43"],
    "recover-big-json": ["recover", "--a", "1191,1239,582,2303", "--format", "json"],
    "recover-reordered": ["recover", "--a", "107,133,106,131"],
    "recover-reordered-json": ["recover", "--a", "107,133,106,131", "--format", "json"],
    "recover-permuted-strict-max": ["recover", "--a", "29,19,26,43"],
    "recover-not-form": ["recover", "--a", "2,3,4,5"],
    "recover-not-form-json": ["recover", "--a", "2,3,4,5", "--format", "json"],
    "recover-gcd-input": ["recover", "--a", "2,4,6,8"],
    "usage-both-inputs": ["analyze", "--a", "8,5,7,9", "--d", "1,1,1,2,1,1,1,1", "--m", "0"],
    "usage-bad-format": ["analyze", "--a", "8,5,7,9", "--m", "0", "--format", "xml"],
    "usage-missing-m": ["analyze", "--a", "8,5,7,9"],
    "usage-negative-m": ["analyze", "--a", "8,5,7,9", "--m", "-3"],
    "usage-unknown-command": ["frobnicate"],
    "usage-no-command": [],
    "usage-unrecognized-arguments": ["analyze", "--a", "8,5,7,9", "--m", "0", "extra"],
    "usage-double-dash-first": ["--", "analyze", "--a", "8,5,7,9", "--m", "0"],
    # argv shapes that the direct reader declines and argparse parses
    "analyze-abbreviated-option": ["analyze", "--a", "8,5,7,9", "--m", "0", "--form", "json"],
    "analyze-equals-joined-option": ["analyze", "--a=8,5,7,9", "--m", "0"],
    "analyze-repeated-option": ["analyze", "--a", "8,5,7,9", "--m", "5", "--m", "0"],
    "usage-missing-value": ["analyze", "--a", "8,5,7,9", "--m"],
    "usage-invalid-int": ["analyze", "--a", "8,5,7,9", "--m", "x"],
    "usage-double-dash-after-command": ["analyze", "--", "--a", "8,5,7,9", "--m", "0"],
    "gb-repeated-flag": ["gb", "--a", "8,5,7,9", "--m", "0", "--homogenize", "--homogenize"],
    "help": ["--help"],
    "help-analyze": ["analyze", "--help"],
    "help-recover": ["recover", "--help"],
    "help-gb": ["gb", "--help"],
    "help-family": ["family", "--help"],
    "help-verify": ["verify", "--help"],
}


def transcript(argv) -> str:
    """Run the CLI in-process with no CURVELAB_* overrides and render its
    exit code, stdout and stderr as one text.

    Text that argparse prints itself (`--help`) goes to sys.stdout and
    ends in SystemExit, so sys.stdout is captured with the `out` stream
    and a SystemExit code is recorded as the exit.  COLUMNS is pinned so
    that argparse wraps help text the same way in every terminal.
    """
    from curvelab.cli import main

    saved = {k: os.environ.pop(k) for k in list(os.environ)
             if k.startswith("CURVELAB_") or k == "COLUMNS"}
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv), out=out)
            except SystemExit as exc:
                rc = exc.code
    finally:
        del os.environ["COLUMNS"]
        os.environ.update(saved)
    return (
        f"$ curvelab {' '.join(argv)}\nexit: {rc}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv))
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}", file=sys.stderr)
