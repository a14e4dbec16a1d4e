"""The decisions of the Buchberger kernel, recorded run by run.

For each kernel run of a fixed corpus, tests/kernel_decisions.json holds
the field width, the leads and trails in the order they joined, and how
many normal forms and S-pairs the run formed.  A lead or trail is kept
as its exponent tuple, the unpacked form of the kernel's int.  The
kernel's strategy fixes all of them: entries pop by (weight, key, i, j),
the reducer with the smallest index is used, leads before trails, and
of the new pairs with one lcm the last i is kept, none when any of them
has coprime leads, and in a weighted run none when its trail shares a
variable with the new element's.  Another choice of pairs that ends at
the same reduced basis still moves a lead, a trail or a count here.  The
order of pairs tied on (weight, key) and the choice of reducer do not:
a copy that pops ties in reverse or reduces by the last dividing lead
replays this corpus unchanged, so `test_groebner`'s hand-built
tied-pairs test pins those two.

The corpus: `sample_applicable(7, 60)`, `sample_long_basis(7, 20)` and
six reordered (19, 29, 26, 43) members through `_buchberger`, each
weighted and stopped at x4, weighted to the end, and unweighted.  Their
degrees fit the narrow fields, so each record reads 15 bits: it is the
run of `_run` at that width.  The long-basis members also run the same
three ways through `_run` at 64 bits.  After a deliberate change of
decisions, list per record the fields that moved with

    PYTHONPATH=src python tests/test_kernel_decisions.py --check

(exit status 1 when any did), then rewrite the file with

    PYTHONPATH=src python tests/test_kernel_decisions.py
"""

import contextlib
import json
import sys
from dataclasses import astuple
from pathlib import Path

from curvelab import AFFINE_ORDER, BresinskyData, generators, groebner, member_degrees

from helpers import reordered_basic_members, sample_applicable, sample_long_basis

RECORD = Path(__file__).resolve().parent / "kernel_decisions.json"

#: (degrees given, stop) of the three ways each member runs
WAYS = ((True, 3), (True, None), (False, None))


@contextlib.contextmanager
def _counting(calls):
    """Count the calls of `_normal_form` and `_s_pair` into `calls`."""
    real = {name: getattr(groebner, name) for name in ("_normal_form", "_s_pair")}

    def counter(name):
        def counting(*args):
            calls[name] += 1
            return real[name](*args)

        return counting

    try:
        for name in real:
            setattr(groebner, name, counter(name))
        yield
    finally:
        for name, fn in real.items():
            setattr(groebner, name, fn)


def _decisions():
    """One record per kernel run of the corpus, in a fixed order."""
    basic = BresinskyData(d21=2, d41=3, d32=3, d42=1, d13=2, d23=3, d14=1, d34=1)
    long_basis = sample_long_basis(7, 20)
    runs = []
    for data, m in sample_applicable(7, 60) + long_basis + reordered_basic_members(basic, 6):
        runs.append((data, m, "_buchberger", None))
    for data, m in long_basis:
        runs.append((data, m, "_run", groebner.FIELD_BITS))
    records = []
    for data, m, kernel, bits in runs:
        gens, deg = generators(data, m), member_degrees(data, m)
        for weighted, stop in WAYS:
            args = (groebner.DEFAULT_STEP_BOUND, deg if weighted else None, stop)
            calls = {"_normal_form": 0, "_s_pair": 0}
            with _counting(calls):
                if kernel == "_run":
                    pk, leads, trails = groebner._run(
                        list(gens), groebner.Packing(AFFINE_ORDER, bits), *args
                    )
                else:
                    pk, leads, trails = groebner._buchberger(gens, AFFINE_ORDER, *args)
            records.append({
                "member": [*astuple(data), m],
                "kernel": kernel,
                "weighted": weighted,
                "stop": stop,
                "bits": pk.bits,
                "normal_forms": calls["_normal_form"],
                "s_pairs": calls["_s_pair"],
                "leads": [pk.unpack(p) for p in leads],
                "trails": [pk.unpack(p) for p in trails],
            })
    return records


def _tuples(record):
    """A record read back from JSON, with tuples where the kernel gives them."""
    for name in ("leads", "trails"):
        record[name] = [tuple(e) for e in record[name]]
    return record


def _recorded():
    return json.loads(RECORD.read_text(), object_hook=_tuples)


#: the fields that name a record's run, as `_review` prints them
RUN = ("member", "kernel", "weighted", "stop")


def _review(records, recorded):
    """One line per record whose fields differ from the recorded one:
    its position, its run and each moved field with both values (leads
    and trails by their lengths), then a count of the moved fields."""
    lines = []
    moved: dict[str, int] = {}
    if len(records) != len(recorded):
        lines.append(f"{len(records)} records against {len(recorded)} recorded")
    for k, (got, want) in enumerate(zip(records, recorded)):
        fields = [name for name in want if got.get(name) != want[name]]
        fields += [name for name in got if name not in want]
        if not fields:
            continue
        changes = []
        for name in fields:
            moved[name] = moved.get(name, 0) + 1
            old, new = want.get(name), got.get(name)
            if name in ("leads", "trails") and old is not None and new is not None:
                old, new = f"{len(old)} entries", f"{len(new)} entries, differing"
            changes.append(f"{name} {old} -> {new}")
        run = " ".join(f"{name}={want.get(name)}" for name in RUN)
        lines.append(f"record {k} ({run}): " + "; ".join(changes))
    count = sum(line.startswith("record ") for line in lines)
    summary = "".join(f", {name} in {n}" for name, n in sorted(moved.items()))
    lines.append(f"{count} of {len(recorded)} records moved{summary}")
    return lines


def test_the_kernel_makes_the_recorded_decisions():
    recorded = _recorded()
    records = _decisions()
    assert len(records) == len(recorded) == 318
    for got, want in zip(records, recorded):
        assert got == want, {k: want[k] for k in ("member", "kernel", "weighted", "stop", "bits")}


def test_review_lists_the_moved_fields_of_each_record():
    recorded = _recorded()[:3]
    moved = [dict(r) for r in recorded]
    moved[1]["normal_forms"] += 1
    moved[1]["leads"] = moved[1]["leads"][:-1]
    run = " ".join(f"{name}={recorded[1][name]}" for name in RUN)
    n = len(recorded[1]["leads"])
    assert _review(recorded, recorded) == ["0 of 3 records moved"]
    assert _review(moved, recorded) == [
        f"record 1 ({run}): normal_forms {recorded[1]['normal_forms']} -> "
        f"{recorded[1]['normal_forms'] + 1}; leads {n} entries -> {n - 1} entries, differing",
        "1 of 3 records moved, leads in 1, normal_forms in 1",
    ]
    assert _review(moved[:2], recorded)[0] == "2 records against 3 recorded"


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        report = _review(_decisions(), _recorded())
        print("\n".join(report))
        sys.exit(len(report) > 1)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    lines = (json.dumps(r, separators=(",", ":")) for r in _decisions())
    RECORD.write_text("[\n" + ",\n".join(lines) + "\n]\n")
