"""The benchmark's workloads: seeded invocation streams and the checks on
every reply.

A workload is a generator of `Call`s driven in a closed loop: the runner
sends each classified `Outcome` back into the generator before it asks
for the next call, so a follow-up invocation can depend on the previous
reply.  Inputs are built from the benchmark's own copy of the parameter
formulas, so a defect in curvelab cannot change what the benchmark asks,
and every check below is computed independently of the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

OK = "ok"
FORM_MISS = "form_miss"
FAILED = "failed"

SKIP_FORM = "not Bresinsky form"
SKIP_GCD = "gcd>1"
D_NAMES = ("d21", "d41", "d32", "d42", "d13", "d23", "d14", "d34")

# Published anchors: degree vector -> parameters d21..d34.
BASIC = ((19, 29, 26, 43), (2, 3, 3, 1, 2, 3, 1, 1))
BIG = ((1191, 1239, 582, 2303), (9, 7, 1, 10, 9, 5, 6, 3))
SMALL = ((8, 5, 7, 9), (1, 1, 1, 2, 1, 1, 1, 1))

Vec4 = tuple[int, int, int, int]


def a_from_d(d) -> Vec4:
    d21, d41, d32, d42, d13, d23, d14, d34 = d
    d1, d2, d3, d4 = d21 + d41, d32 + d42, d13 + d23, d14 + d34
    return (
        d2 * d4 * d13 + d42 * d14 * d23,
        d3 * d4 * d21 + d41 * d34 * d23,
        d1 * d2 * d34 + d32 * d21 * d14,
        d1 * d3 * d42 + d13 * d32 * d41,
    )


def shift_vector(d) -> Vec4:
    d21, d41, d32, d42, d13, d23, d14, d34 = d
    d2, d3 = d32 + d42, d13 + d23
    v1 = d2 * d3 - d23 * d32
    return (v1, d21 * d3 + d23 * d34, d2 * d34 + d21 * d32, v1)


def member_degrees(d, m: int) -> Vec4:
    return tuple(a + m * v for a, v in zip(a_from_d(d), shift_vector(d)))


def analysable(d, m: int) -> bool:
    """Coprime base and member degrees, fourth member degree the strict
    maximum: the member is analysed directly, with no recovery."""
    deg = member_degrees(d, m)
    return (
        math.gcd(*a_from_d(d)) == 1
        and math.gcd(*deg) == 1
        and all(deg[3] > deg[i] for i in range(3))
    )


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its JSON reply must pass.

    `check` returns None when the reply is right and a message otherwise.
    `form_miss_ok` marks calls whose "not Bresinsky form" refusal is a
    known outcome rather than a failure.  `member` is (d, m, degrees) for
    calls that get an untimed oracle pass after the run.
    """

    argv: tuple[str, ...]
    check: Callable[[dict], Optional[str]]
    form_miss_ok: bool = False
    member: Optional[tuple] = None


@dataclass
class Outcome:
    call: Call
    seconds: float
    rc: Optional[int]
    out: str
    err: str
    status: str = ""
    detail: str = ""
    doc: Optional[dict] = field(default=None, repr=False)


def _rows(doc: dict) -> list:
    if "reports" in doc:
        return doc["reports"]
    return [doc] if "skip_reason" in doc else []


def classify(o: Outcome) -> None:
    """Set `o.status` from the exit code *and* the reply.

    Exit 1 or 3, an exception escaping `main`, any other refusal and any
    "error: ..." skip row all count as failed; a "not Bresinsky form"
    refusal counts as a form miss only where the workload expects one.
    """
    if o.rc is None:
        o.status, o.detail = FAILED, f"exception escaped main: {o.err.strip()[-300:]}"
        return
    if o.rc == 2 and o.call.form_miss_ok and o.err.startswith(f"refused: {SKIP_FORM}"):
        o.status = FORM_MISS
        return
    if o.rc != 0:
        o.status, o.detail = FAILED, f"exit {o.rc}: {o.err.strip()[:300]}"
        return
    try:
        o.doc = json.loads(o.out)
    except ValueError:
        o.status, o.detail = FAILED, "reply is not JSON"
        return
    for row in _rows(o.doc):
        reason = row.get("skip_reason") or ""
        if reason.startswith("error"):
            o.status, o.detail = FAILED, f"m={row.get('m')}: {reason}"
            return
    msg = o.call.check(o.doc)
    o.status, o.detail = (FAILED, msg) if msg else (OK, "")


# ---- checks -------------------------------------------------------------


def check_member(doc: dict, degrees: Vec4, expect_acm: Optional[bool] = None,
                 case: Optional[int] = None) -> Optional[str]:
    if doc.get("degrees") != list(degrees):
        return f"degrees {doc.get('degrees')} != {list(degrees)}"
    if doc.get("applicable") is not True:
        return f"not applicable: {doc.get('skip_reason')}"
    if doc.get("agree") is not True or doc["verdict_criterion"] != doc["verdict_groebner"]:
        return f"routes disagree at {list(degrees)}"
    if expect_acm is not None and doc["verdict_criterion"] is not expect_acm:
        return f"verdict {doc['verdict_criterion']} at {list(degrees)}, expected {expect_acm}"
    if case is not None and doc.get("case") != case:
        return f"case {doc.get('case')} at {list(degrees)}, expected {case}"
    return None


def check_recover(doc: dict, d) -> Optional[str]:
    sols = doc.get("solutions") or []
    want = dict(zip(D_NAMES, d))
    if len(sols) != 1 or sols[0].get("d") != want or sols[0].get("permutation") != [1, 2, 3, 4]:
        return f"recover gave {sols!r:.200}, expected d={want}"
    return None


def check_scan(doc: dict, d, lo: int, hi: int) -> Optional[str]:
    """Every coprime member of the range is analysable and ACM; every
    other member is skipped for its common factor."""
    rows = doc.get("reports") or []
    if [r.get("m") for r in rows] != list(range(lo, hi + 1)):
        return "scan rows do not cover the range"
    for r in rows:
        deg = member_degrees(d, r["m"])
        if math.gcd(*deg) == 1:
            msg = check_member(r, deg, expect_acm=True)
        elif r.get("skip_reason") != SKIP_GCD:
            msg = f"m={r['m']}: skip {r.get('skip_reason')!r}, expected {SKIP_GCD!r}"
        else:
            msg = None
        if msg:
            return msg
    return None


def _weight(mono: dict, w) -> int:
    return sum(e * x for e, x in zip(mono["exponents"], w))


def check_homogeneous(doc: dict, degrees: Vec4) -> Optional[str]:
    """Every element is degree-homogeneous over x0..x4 and balanced under
    (0, a1..a4): the homogenized-toric-ideal membership test."""
    elems = doc.get("basis", {}).get("elements") or []
    if not elems or not doc.get("tag", {}).get("homogenized"):
        return "no homogenized basis"
    w = (0,) + tuple(degrees)
    for b in elems:
        lead, trail = b["lead"], b["trail"]
        if len(lead["exponents"]) != 5 or len(trail["exponents"]) != 5:
            return "homogenized element outside x0..x4"
        if sum(lead["exponents"]) != sum(trail["exponents"]) or _weight(lead, w) != _weight(trail, w):
            return f"element {b} fails homogeneous membership for {list(degrees)}"
    return None


def check_oracle(doc: dict, degrees: Vec4) -> Optional[str]:
    """Every oracle element lies in the toric ideal of `degrees`, and an
    x4-bearing lead exists, as it must for a non-ACM member."""
    elems = doc.get("basis", {}).get("elements") or []
    if not elems:
        return "empty oracle basis"
    for b in elems:
        if _weight(b["lead"], degrees) != _weight(b["trail"], degrees):
            return f"oracle element {b} not in the toric ideal of {list(degrees)}"
    if not any(b["lead"]["exponents"][3] > 0 for b in elems):
        return f"no x4-bearing lead for the non-ACM member {list(degrees)}"
    return None


# ---- invocations --------------------------------------------------------


def _csv(v) -> str:
    return ",".join(str(x) for x in v)


def _analyze_d(d, m: int, check, member=None) -> Call:
    argv = ("analyze", "--d", _csv(d), "--m", str(m), "--format", "json")
    return Call(argv, check, member=member)


def _recover(anchor) -> Call:
    a, d = anchor
    return Call(("recover", "--a", _csv(a), "--format", "json"), partial(check_recover, d=d))


def _scan(cmd: str, anchor, lo: int, hi: int) -> Call:
    a, d = anchor
    argv = (cmd, "--a", _csv(a), "--m-range", f"{lo}..{hi}", "--format", "json")
    return Call(argv, partial(check_scan, d=d, lo=lo, hi=hi))


def recover_scan_calls() -> list[Call]:
    """The paper's scan: every coprime shift of (19,29,26,43) in 0..200,
    plus the two published recoveries; the scan is in one fixed shuffled
    order.

    A member's cost grows with m, so in m order the calls near the median
    latency would run back to back, and one busy second on the host would
    move call_p50_ms; shuffled, they are spread over the pass."""
    a, d = BASIC
    calls = [_recover(BASIC), _recover(BIG)]
    for m in range(201):
        if math.gcd(*member_degrees(d, m)) != 1:
            continue
        argv = ("analyze", "--a", _csv(a), "--m", str(m), "--format", "json")
        check = partial(check_member, degrees=member_degrees(d, m), expect_acm=False)
        calls.append(Call(argv, check, form_miss_ok=True))
    analyze = calls[2:]
    random.Random("recover-scan").shuffle(analyze)
    return calls[:2] + analyze


def recover_scan(seed: int) -> Iterator[Call]:
    """Fixed by the paper; the seed does not change it.  Runs stop only
    between whole passes, so every run has the same mix of calls."""
    calls = recover_scan_calls()
    while True:
        for c in calls:
            yield c


_SEEN_BITS = 1 << 20


def _distinct(rng: random.Random, draw: Callable, slots: Iterator, budget: int = 100_000
              ) -> Iterator[tuple]:
    """One distinct, analysable (d, m) draw per slot; ends when `budget`
    draws in a row bring nothing new.

    Draws are remembered in a fixed 128 KiB bitmap indexed by a CRC of
    the draw, so the client's memory does not grow with the calls a run
    makes.  A collision skips a new draw; it never lets a repeat through.
    """
    seen = bytearray(_SEEN_BITS // 8)
    for slot in slots:
        for _ in range(budget):
            d, m = draw(rng, slot)
            h = zlib.crc32(bytes((*d, m))) % _SEEN_BITS
            if not seen[h >> 3] >> (h & 7) & 1 and analysable(d, m):
                seen[h >> 3] |= 1 << (h & 7)
                yield d, m
                break
        else:
            return


def _long_draw(rng: random.Random, d13: int):
    d = (rng.choice((2, 3)), rng.randint(1, 6), 1, 1, d13, 1,
         rng.randint(1, 2), rng.randint(1, 2))
    return d, rng.randint(0, 40)


D13 = range(20, 41)


def _d13_blocks(rng: random.Random) -> Iterator[int]:
    """d13 sets most of a member's cost (its reduced basis grows with it),
    so each block of 21 members takes every value 20..40 once: runs on
    different seeds then carry nearly the same work per member."""
    while True:
        block = list(D13)
        rng.shuffle(block)
        yield from block


def long_basis(seed: int) -> Iterator[Call]:
    """Case-2 members with d1 < d13, so condition d1-d13-d14 fails and
    every member is non-ACM; their reduced bases are long."""
    rng = random.Random(f"long-basis:{seed}")
    for d, m in _distinct(rng, _long_draw, _d13_blocks(rng)):
        deg = member_degrees(d, m)
        check = partial(check_member, degrees=deg, expect_acm=False, case=2)
        yield _analyze_d(d, m, check, member=(d, m, deg))


def _small_draw(rng: random.Random, slot=None):
    d = []
    for _ in range(4):
        row = rng.randint(2, 10)
        first = rng.randint(1, row - 1)
        d += [first, row - first]
    return tuple(d), rng.randint(0, 10)


def small_members(seed: int) -> Iterator[Call]:
    """Two published anchor scans, then small members; each member the
    reply calls ACM is followed by its homogenized closed-form basis."""
    yield _scan("verify", SMALL, 0, 50)
    yield _scan("family", BIG, 0, 30)
    rng = random.Random(f"small-members:{seed}")
    for d, m in _distinct(rng, _small_draw, itertools.repeat(None)):
        deg = member_degrees(d, m)
        outcome = yield _analyze_d(d, m, partial(check_member, degrees=deg))
        if outcome.status == OK and outcome.doc["verdict_criterion"] is True:
            argv = ("gb", "--d", _csv(d), "--m", str(m), "--homogenize", "--format", "json")
            yield Call(argv, partial(check_homogeneous, degrees=deg))


def oracle_call(member) -> Call:
    d, m, deg = member
    argv = ("gb", "--d", _csv(d), "--m", str(m), "--oracle", "--format", "json")
    return Call(argv, partial(check_oracle, degrees=deg))


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int], Iterator[Call]]
    tail_pct: float  # fixed tail percentile, chosen so a run has >= 10 samples beyond it
    trace_calls: int  # size of the fixed invocation list of a traced run
    stop_every: int = 1  # a timed run stops only after a multiple of this many calls


_PASS = len(recover_scan_calls())

WORKLOADS = {
    "recover-scan": Workload(recover_scan, 80, _PASS, stop_every=_PASS),
    # whole d13 blocks, so every run has the same spread of member costs
    "long-basis": Workload(long_basis, 80, 5 * len(D13), stop_every=len(D13)),
    "small-members": Workload(small_members, 99, 3600),
}
