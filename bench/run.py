"""curvelab benchmark: one closed-loop client driving `curvelab.cli.main`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh Python process with one client and no threads.
It builds its argv lists from `--seed` (see workloads.py), calls
`curvelab.cli.main` in process with every CURVELAB_* variable removed
from the environment, and checks every reply outside the timed region.

`--trace 0` issues calls until `--seconds` have passed and prints the
end-to-end metrics, with call times rescaled by the host's speed as a
probe measures it between calls (see speed.py).  `--trace 1` ignores
`--seconds`: it replays a fixed invocation list three times (untraced,
with spans, with leaf counters; see spans.py), so its counts repeat
exactly, and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import monotonic, perf_counter

import spans
from speed import SpeedProbe
from workloads import FAILED, FORM_MISS, OK, WORKLOADS, Outcome, classify, oracle_call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
SETUP_CODE = "import curvelab.cli as cli; cli.build_parser(); import time; print(time.monotonic())"
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MAX_FAILURES_SHOWN = 5


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURVELAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter until it has imported
    curvelab.cli and built its parser.  The child reads the system-wide
    monotonic clock itself, so neither its exit nor the parent's polling
    for it is counted."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=clean_env(), cwd=ROOT,
                              check=True, timeout=60, capture_output=True, text=True)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def load_program():
    """Import curvelab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "curvelab" / "cli.py").is_file():
        raise FileNotFoundError(f"no curvelab sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("CURVELAB_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curvelab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "curvelab":
        raise ImportError(f"curvelab imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(call.argv), out=out)
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - t0
    o = Outcome(call, seconds, rc, out.getvalue(), err.getvalue())
    classify(o)
    return o


class Pass:
    """What one pass over a workload keeps: compact per-call records only,
    so that peak_rss_mb barely grows with the number of calls a run makes."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.statuses: list[str] = []
        self.digests = array("q")
        self.members: list[tuple[int, tuple]] = []  # (call index, member) for the oracle pass
        self.failures: list[str] = []

    def record(self, o: Outcome) -> None:
        if o.status == FAILED:
            self.failures.append(f"{' '.join(o.call.argv)}: {o.detail}")
        if o.call.member is not None and o.status != FAILED:
            self.members.append((len(self.statuses), o.call.member))
        self.latencies.append(o.seconds)
        self.statuses.append(o.status)
        self.digests.append(hash((o.rc, o.out)))

    def fail(self, index: int, why: str) -> None:
        self.statuses[index] = FAILED
        self.failures.append(why)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)


def drive(cli, workload: str, seed: int, seconds: float | None = None,
          limit: int | None = None, tracer=None, probe: SpeedProbe | None = None) -> Pass:
    """Closed loop: issue the next call only after the previous reply is
    classified, and sample `probe` between calls.  Stops after `limit`
    calls, or at the first call boundary the workload allows once
    `seconds` of wall time have passed."""
    p = Pass()
    spec = WORKLOADS[workload]
    gen = spec.calls(seed)
    deadline = perf_counter() + seconds if seconds is not None else math.inf
    try:
        call = next(gen)
        while True:
            if tracer is not None:
                tracer.invocation = len(p.statuses)
            o = invoke(cli, call)
            p.record(o)
            if probe is not None:
                probe.maybe_sample()
            n = len(p.statuses)
            if n == limit or (n % spec.stop_every == 0 and perf_counter() >= deadline):
                break
            call = gen.send(o)
    except StopIteration:
        pass
    finally:
        gen.close()
    return p


def oracle_pass(cli, p: Pass) -> None:
    """Untimed: the Buchberger basis of every checked member must lie in
    its toric ideal and carry an x4-bearing lead exactly when non-ACM."""
    for index, member in p.members:
        o = invoke(cli, oracle_call(member))
        if o.status != OK:
            p.fail(index, f"oracle {' '.join(o.call.argv)}: {o.detail}")


def tail(latencies, pct: float) -> tuple[float, float, int]:
    """Nearest-rank percentile at `pct`, or lower down the ladder when
    fewer than ten samples lie beyond it: (value, percentile, beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100.0, 0


def end_to_end(workload: str, p: Pass, setup_s: float, rss_mb: float,
               probe: SpeedProbe) -> tuple[dict, list[str]]:
    """The metrics, with every call time divided by the speed factor of
    the probe taken between calls; the raw times are printed as notes.
    Set-up time is not rescaled: it did not follow the probe's factor
    from run to run, while the call times did."""
    n = len(p.statuses)
    failed = p.statuses.count(FAILED)
    missed = p.statuses.count(FORM_MISS)
    tail_s, pct, beyond = tail(p.latencies, WORKLOADS[workload].tail_pct)
    p50_s = statistics.median(p.latencies)
    k = probe.factor()
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (n / p.busy_s * k, "1/s"),
        "call_p50_ms": (p50_s / k * 1000, "ms"),
        "call_tail_ms": (tail_s / k * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (1 - failed / n, "frac"),
        "form_ok_frac": (1 - missed / n, "frac"),
    }
    notes = [
        f"call_tail_ms is p{pct:g} of {n} calls, {beyond} samples beyond it",
        f"failed_frac = {failed / n!r} frac ({failed}/{n}); ok_frac = 1 - failed_frac",
        f"form_miss_frac = {missed / n!r} frac ({missed}/{n}); form_ok_frac = 1 - form_miss_frac",
        f"calls_per_s counts time inside curvelab.cli.main ({p.busy_s:.3f} s busy)",
        f"speed factor = {k!r} over {len(probe.times)} probe samples between calls",
        f"raw: calls_per_s = {n / p.busy_s!r} 1/s; "
        f"call_p50_ms = {p50_s * 1000!r} ms; call_tail_ms = {tail_s * 1000!r} ms",
    ]
    return metrics, notes


def traced(cli, workload: str, seed: int, limit: int | None) -> tuple[Pass, dict, list[str]]:
    """Untraced, span and counting passes over the same fixed call list;
    any reply that differs between the passes counts as failed."""
    limit = limit or WORKLOADS[workload].trace_calls
    base = drive(cli, workload, seed, limit=limit)
    tracer = spans.SpanTracer()
    tracer.install()
    try:
        with_spans = drive(cli, workload, seed, limit=limit, tracer=tracer)
    finally:
        tracer.patches.undo()
    counter = spans.CallCounter()
    counter.install()
    try:
        with_counts = drive(cli, workload, seed, limit=limit)
    finally:
        counter.patches.undo()
    for other, label in ((with_spans, "span"), (with_counts, "counting")):
        for i, (a, b) in enumerate(zip(base.digests, other.digests)):
            if a != b:
                base.fail(i, f"call {i}: the {label} pass reply differs from the untraced one")
        if len(other.digests) != len(base.digests):
            base.fail(-1, f"the {label} pass made {len(other.digests)} calls, not {len(base.digests)}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    metrics, gone = spans.layer_metrics(tracer, counter, base.busy_s, with_spans.busy_s)
    notes = [f"missing metric (traced name is gone): {name}" for name in gone]
    return base, metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run; prints its report and returns the result object."""
    if trace:
        cli = load_program()
        p, metrics, notes = traced(cli, workload, seed, limit)
        oracle_pass(cli, p)
    else:
        setup_s = measure_setup()
        cli = load_program()
        probe = SpeedProbe()
        p = drive(cli, workload, seed, seconds=seconds, limit=limit, probe=probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        oracle_pass(cli, p)
        metrics, notes = end_to_end(workload, p, setup_s, rss_mb, probe)
    failed = p.statuses.count(FAILED)
    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(p.statuses)} calls, "
          f"{failed} failed")
    for why in p.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0,
        "attempted": len(p.statuses),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "curvelab" / "cli.py").is_file():
        print(f"bench: no curvelab sources under {SRC}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
