"""The decisions of the Buchberger kernel, recorded run by run.

For each kernel run of a fixed corpus, tests/kernel_decisions.json holds
the field width, the leads and trails in the order they joined, and how
many normal forms and S-pairs the run formed.  A lead or trail is kept
as its exponent tuple, the unpacked form of the kernel's int.  The
kernel's strategy fixes all of them: entries pop by (weight, key, i, j),
the reducer with the smallest index is used, leads before trails, and
of the new pairs with one lcm the last i is kept, none when any of them
has coprime leads.  Another choice that ends at the same reduced basis
still moves a lead, a trail or a count here.

The corpus: `sample_applicable(7, 60)`, `sample_long_basis(7, 20)` and
six reordered (19, 29, 26, 43) members through `_buchberger`, each
weighted and stopped at x4, weighted to the end, and unweighted.  Their
degrees fit the narrow fields, so each record reads 15 bits: it is the
run of `_run` at that width.  The long-basis members also run the same
three ways through `_run` at 64 bits.  After a deliberate change of decisions, rewrite the file with

    PYTHONPATH=src python tests/test_kernel_decisions.py

and review the diff.
"""

import contextlib
import json
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


def test_the_kernel_makes_the_recorded_decisions():
    recorded = json.loads(RECORD.read_text(), object_hook=_tuples)
    records = _decisions()
    assert len(records) == len(recorded) == 318
    for got, want in zip(records, recorded):
        assert got == want, {k: want[k] for k in ("member", "kernel", "weighted", "stop", "bits")}


if __name__ == "__main__":
    lines = (json.dumps(r, separators=(",", ":")) for r in _decisions())
    RECORD.write_text("[\n" + ",\n".join(lines) + "\n]\n")
