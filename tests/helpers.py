"""Shared test utilities: exponent-tuple builders, reference oracles on
exponent tuples (divisibility, lcm, weight and an independent comparison),
toric membership, homogenization and dehomogenization oracles, a
brute-force recovery oracle, a linear-walk oracle for one row of
recovery, a four-row reference for the parameters of one coordinate
order, a walk over all 24 coordinate orders for the any-order
recovery, the packed normal form on exponent pairs with its tuple-based
oracle, an all-pairs Buchberger oracle, a seeded generator of valid
parameter sets, the reordered members of (19, 29, 26, 43), and the
reply layouts as dicts (`pair_dict`, `basis_dict`, `report_dict`), the
reference that `json.dumps` turns into the text `curvelab.render`
writes.

A monomial here is its exponent tuple and a binomial its (lead, trail)
pair of exponent tuples, the one form `curvelab` gives a basis."""

import heapq
import math
from itertools import permutations, product
from random import Random

from curvelab import (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    AmbientMismatchError,
    Binomial,
    BinomialBasis,
    BresinskyData,
    Monomial,
    StepBoundExceeded,
    a_from_d,
    case_conditions,
    member_degrees,
)
from curvelab.acm import _padded
from curvelab.bresinsky import _ROWS, _validated_vector, d_from_a, degree_refusal
from curvelab import bresinsky, groebner


def m4(e1=0, e2=0, e3=0, e4=0) -> tuple:
    return (e1, e2, e3, e4)


def m5(e0=0, e1=0, e2=0, e3=0, e4=0) -> tuple:
    return (e0, e1, e2, e3, e4)


def _same_ring(a, b) -> None:
    if len(a) != len(b):
        raise AmbientMismatchError(f"ambient rings differ: {len(a)} vs {len(b)} variables")


def times(a, b) -> tuple:
    """The product a*b: exponents add."""
    _same_ring(a, b)
    return tuple(x + y for x, y in zip(a, b))


def divides(a, b) -> bool:
    """True iff every exponent of a is <= the matching one of b."""
    _same_ring(a, b)
    return all(x <= y for x, y in zip(a, b))


def lcm(a, b) -> tuple:
    """Componentwise maximum of exponents."""
    _same_ring(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def weight(e, weights) -> int:
    """Dot product of exponents with a weight vector of ambient size."""
    _same_ring(e, weights)
    return sum(x * w for x, w in zip(e, weights))


def oracle_compare(a, b, priority) -> int:
    """Textbook restatement of the graded reverse lexicographic rule on
    exponent tuples: degree first, then the sign at the last position
    where the exponent vectors differ when listed from greatest to least
    priority (larger exponent there loses)."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    ids = list(range(5 - len(a), 5))  # x1..x4, or x0..x4
    last = 0
    for vid in priority:
        i = ids.index(vid)
        diff = a[i] - b[i]
        if diff != 0:
            last = diff
    if last == 0:
        return 0
    return 1 if last < 0 else -1


def oriented(pair, order):
    """The exponent pair of a binomial led by its larger side under
    `order`, by `oracle_compare`; None when the sides are equal."""
    a, b = (tuple(side) for side in pair)
    c = oracle_compare(a, b, order.priority)
    if c == 0:
        return None
    return (a, b) if c > 0 else (b, a)


def bino(lead, trail, order=AFFINE_ORDER) -> tuple:
    """The binomial lead - trail (up to sign) as an oriented pair."""
    b = oriented((lead, trail), order)
    assert b is not None
    return b


def binomial(pair) -> Binomial:
    """The `Binomial` of an oriented exponent pair."""
    return Binomial(Monomial(tuple(pair[0])), Monomial(tuple(pair[1])))


def pair_of(b: Binomial) -> tuple:
    """The (lead, trail) exponent pair of a `Binomial`."""
    return b.lead.exponents, b.trail.exponents


def pair_set(pairs) -> set:
    """Orientation-insensitive view of a collection of exponent pairs."""
    return {frozenset((tuple(lead), tuple(trail))) for lead, trail in pairs}


def toric_membership(b, degrees) -> bool:
    """True iff both sides have equal weight under the degree vector,
    i.e. the binomial lies in the toric ideal of that vector."""
    return weight(b[0], tuple(degrees)) == weight(b[1], tuple(degrees))


def homogenize(b) -> tuple:
    """A 4-variable pair padded with x0 by `acm._padded`, the padding
    step of `acm._homogenized`, and oriented under PROJECTIVE_ORDER by
    `oracle_compare`, not by the canonical sort."""
    return bino(*_padded(*b), PROJECTIVE_ORDER)


def dehomogenize(b) -> tuple:
    """Set x0 := 1 in a 5-variable pair and orient it under AFFINE_ORDER."""
    assert len(b[0]) == 5
    return bino(b[0][1:], b[1][1:])


def monomials_of_degree_at_most(nvars: int, d: int):
    """All exponent vectors with total degree <= d."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, nvars)
    return out


def random_valid_data(rng: Random, max_row: int = 10) -> BresinskyData:
    """Uniform-ish valid parameter set with every row sum <= max_row."""

    def split():
        x = rng.randint(1, max_row - 1)
        y = rng.randint(1, max_row - x)
        return x, y

    d21, d41 = split()
    d32, d42 = split()
    d13, d23 = split()
    d14, d34 = split()
    return BresinskyData(d21, d41, d32, d42, d13, d23, d14, d34)


def sample_condition_passing(seed: int, count: int, max_row: int = 10, max_m: int = 10):
    """Deterministic corpus of (data, m) with coprime degrees, strictly
    maximal fourth degree, and every case condition passing."""
    rng = Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 500_000, "sampling is not converging"
        data = random_valid_data(rng, max_row)
        m = rng.randint(0, max_m)
        try:
            deg = member_degrees(data, m)
        except Exception:
            continue
        if degree_refusal(deg) is not None:
            continue
        if not case_conditions(data, m).all_pass:
            continue
        out.append((data, m))
    return out


def sample_applicable(seed: int, count: int, max_row: int = 10, max_m: int = 10):
    """Deterministic corpus of (data, m) with coprime degrees and strictly
    maximal fourth degree, with no condition filter."""
    rng = Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 500_000, "sampling is not converging"
        data = random_valid_data(rng, max_row)
        m = rng.randint(0, max_m)
        try:
            deg = member_degrees(data, m)
        except Exception:
            continue
        if degree_refusal(deg) is None:
            out.append((data, m))
    return out


def sample_long_basis(seed: int, count: int):
    """Deterministic corpus of (data, m) shaped like the long-basis bench
    members: case 2 with d13 in 20..40, so d1 < d13 and the member is not
    ACM, with coprime degrees and strictly maximal fourth degree; their
    reduced bases run to dozens of elements."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        data = BresinskyData(
            rng.choice((2, 3)), rng.randint(1, 6), 1, 1, rng.randint(20, 40), 1,
            rng.randint(1, 2), rng.randint(1, 2),
        )
        m = rng.randint(0, 40)
        try:
            deg = member_degrees(data, m)
        except Exception:
            continue
        if degree_refusal(deg) is None:
            out.append((data, m))
    return out


def reordered_basic_members(basic_data, count: int):
    """The first `count` members of (19, 29, 26, 43) that `analyze`
    reads in permuted coordinates, as (first recovery hit, 0)."""
    members = []
    for m in range(201):
        deg = member_degrees(basic_data, m)
        if degree_refusal(deg) == "max-coordinate fails" and deg.count(max(deg)) == 1:
            hit = next(bresinsky._any_order_hits(deg), None)
            if hit is not None:
                members.append((hit[1], 0))
    return members[:count]


def brute_force_parameters(a, cap: int) -> list:
    """Reference oracle for parameter recovery: exhaustive search for all
    parameter sets inducing `a` in role order, with each row sum <= cap.

    The first degree equation a1 = d2*d4*d13 + d42*d14*d23 drives the
    enumeration of (d2, d4, d13, d42, d14, d23); the second and third are
    then linear in (d21, d41) and solved exactly, and the fourth is
    verified on each candidate.
    """
    a1, a2, a3, a4 = a
    sols = []
    d2_hi = min(cap, (a1 - 1) // 2, (a3 - 1) // 2)
    for d2 in range(2, d2_hi + 1):
        d4_hi = min(cap, (a1 - 1) // d2, (a2 - 1) // 2)
        for d4 in range(2, d4_hi + 1):
            d13_hi = min(cap - 1, (a1 - 1) // (d2 * d4))
            for d13 in range(1, d13_hi + 1):
                rem = a1 - d2 * d4 * d13  # = d42 * d14 * d23 >= 1
                for d42 in range(1, d2):
                    if rem % d42:
                        continue
                    rem2 = rem // d42
                    for d14 in range(1, d4):
                        if rem2 % d14:
                            continue
                        d23 = rem2 // d14
                        if d13 + d23 > cap:
                            continue
                        d32 = d2 - d42
                        d34 = d4 - d14
                        d3 = d13 + d23
                        # a2 = A*d21 + B*d41, a3 = C*d21 + D*d41
                        A = d3 * d4
                        B = d34 * d23
                        C = d2 * d34 + d32 * d14
                        D = d2 * d34
                        det = A * D - B * C
                        if det != 0:
                            n21 = a2 * D - a3 * B
                            n41 = A * a3 - C * a2
                            if n21 % det or n41 % det:
                                continue
                            d21, d41 = n21 // det, n41 // det
                            if d21 < 1 or d41 < 1:
                                continue
                            cands = [(d21, d41)]
                        else:
                            cands = []
                            for d21 in range(1, cap):
                                t = a2 - A * d21
                                if t <= 0:
                                    break
                                if t % B == 0:
                                    cands.append((d21, t // B))
                        for d21, d41 in cands:
                            if d21 + d41 > cap:
                                continue
                            data = BresinskyData(d21, d41, d32, d42, d13, d23, d14, d34)
                            if a_from_d(data) == a:
                                sols.append(data)
    return sols


def least_representations_by_walk(a, i, j, k):
    """Reference oracle for `bresinsky._least_representations`: walk c
    upward from ceil((a_j + a_k) / a_i) to the bound
    min(a_j / gcd(a_i, a_j), a_k / gcd(a_i, a_k)) and return the first c
    with c*a_i = x*a_j + y*a_k for some x, y >= 1, with every such (x, y);
    None when the walk reaches the bound.  For each c, x is fixed modulo
    a_k / gcd(a_j, a_k) by a modular inverse.  Linear in the degrees."""
    ai, aj, ak = a[i], a[j], a[k]
    g = math.gcd(aj, ak)
    step = ak // g
    inv = pow(aj // g, -1, step)
    bound = min(aj // math.gcd(ai, aj), ak // math.gcd(ai, ak))
    for c in range(-(-(aj + ak) // ai), bound + 1):
        t = c * ai
        if t % g:
            continue
        x = (t // g) * inv % step or step
        reps = []
        while t - x * aj >= ak:
            reps.append((x, (t - x * aj) // ak))
            x += step
        if reps:
            return c, reps
    return None


def solve_parameters_by_rows(a, solved):
    """Reference for `bresinsky._solve_parameters`: solve all four critical
    rows (through `bresinsky._least_representations`, kept in `solved`
    under the three values each reads) and keep every combination of one
    representation per row whose row sums match
    (d1 = d21+d41, d2 = d32+d42, d3 = d13+d23, d4 = d14+d34) and which
    induces `a` again, in the order of the rows' representations."""
    rows = []
    for i, j, k in _ROWS:
        key = (a[i], a[j], a[k])
        if key not in solved:
            solved[key] = bresinsky._least_representations(a, i, j, k)
        if solved[key] is None:
            return []
        rows.append(solved[key])
    (d1, r1), (d2, r2), (d3, r3), (d4, r4) = rows
    sols = []
    for (d13, d14), (d21, d23), (d32, d34), (d41, d42) in product(r1, r2, r3, r4):
        if (d21 + d41, d32 + d42, d13 + d23, d14 + d34) != (d1, d2, d3, d4):
            continue
        data = BresinskyData(d21, d41, d32, d42, d13, d23, d14, d34)
        if a_from_d(data) == tuple(a):
            sols.append(data)
    return sols


def any_order_hits_by_walk(a):
    """Reference oracle for `bresinsky.d_from_a_any_order`: check the
    vector, then walk all 24 coordinate orders in lexicographic order,
    skip an order `degree_refusal` refuses or whose vector an earlier
    order gave, and run `d_from_a` on each of the rest, keeping every
    (permutation, parameters) hit."""
    vec = _validated_vector(a)
    seen = set()
    hits = []
    for perm in permutations(range(4)):
        b = tuple(vec[i] for i in perm)
        if b in seen or degree_refusal(b) is not None:
            continue
        seen.add(b)
        data = d_from_a(b)
        if data is not None:
            hits.append((perm, data))
    return hits


def _first_reducer(m, elements):
    for g in elements:
        if divides(g[0], m):
            return g
    return None


def _rewrite(m, g) -> tuple:
    """One reduction step on tuples: m / lead * trail, for lead | m."""
    return tuple(e - a + b for e, a, b in zip(m, *g))


def normal_form(
    f,
    basis: BinomialBasis,
    step_bound: int = groebner.DEFAULT_STEP_BOUND,
    bits: int = groebner.FIELD_BITS,
):
    """`groebner._normal_form` on exponent pairs: f, oriented under the
    basis order, and the basis are packed with fields of `bits` bits, and
    the normal form is unpacked; None means zero."""
    f = oriented(f, basis.order)
    pk = groebner.Packing(basis.order, bits)
    elems = [(pk.pack(lead), pk.pack(trail)) for lead, trail in basis]
    h = groebner._normal_form(pk.pack(f[0]), pk.pack(f[1]), elems, pk, step_bound)
    return None if h is None else (pk.unpack(h[0]), pk.unpack(h[1]))


def tuple_normal_form(f, elements, order, step_bound: int = groebner.DEFAULT_STEP_BOUND):
    """Reference oracle for `groebner._normal_form`: the same strategy
    (smallest-index reducer, lead before trail, the same step count and
    StepBoundExceeded text) on exponent tuples, through `_rewrite` and
    `oracle_compare`.  `f` must be oriented under `order`."""
    lead, trail = f
    steps = 0
    while True:
        g = _first_reducer(lead, elements)
        if g is not None:
            lead = _rewrite(lead, g)
            steps += 1
            if steps > step_bound:
                raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
            c = oracle_compare(lead, trail, order.priority)
            if c == 0:
                return None
            if c < 0:
                lead, trail = trail, lead
            continue
        g = _first_reducer(trail, elements)
        if g is None:
            return lead, trail
        # a rewrite strictly decreases the monomial, so no re-orientation
        # is needed after a trail step
        trail = _rewrite(trail, g)
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        if trail == lead:
            return None


def plain_buchberger(gens, order, step_bound: int = groebner.DEFAULT_STEP_BOUND) -> BinomialBasis:
    """Reference oracle for `buchberger`: every pair with non-coprime
    leads is normal-formed, smallest lcm first, with no chain criterion,
    on exponent tuples through `s_binomial` and `tuple_normal_form`.  The
    basis it returns may differ from `buchberger`'s; only the reduced
    bases agree."""
    basis = [oriented(g, order) for g in gens]
    heap = []

    def push_pairs(j):
        fj = basis[j]
        for i in range(j):
            m = lcm(basis[i][0], fj[0])
            if sum(m) == sum(basis[i][0]) + sum(fj[0]):
                continue
            heapq.heappush(heap, (order.key(Monomial(m)), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = groebner.s_binomial(binomial(basis[i]), binomial(basis[j]), order)
        if s is None:
            continue
        h = tuple_normal_form((s.lead.exponents, s.trail.exponents), basis, order, step_bound)
        if h is not None:
            basis.append(h)
            push_pairs(len(basis) - 1)
    return BinomialBasis(tuple(basis), order, is_groebner_verified=True)


# the reply layouts, built from their records' fields


def pair_dict(lead, trail) -> dict:
    """The layout of a binomial with the oriented exponent pair."""
    return {"lead": {"exponents": list(lead)}, "trail": {"exponents": list(trail)}}


def basis_dict(order, pairs) -> dict:
    """The layout of a basis under `order` with the (lead, trail) pairs
    in the order given."""
    return {
        "order": {"kind": order.kind, "priority": list(order.priority)},
        "elements": [pair_dict(lead, trail) for lead, trail in pairs],
    }


def report_dict(report) -> dict:
    """The layout of an `AcmReport`."""
    return {
        "m": report.m,
        "degrees": list(report.degrees),
        "applicable": report.applicable,
        "skip_reason": report.skip_reason,
        "case": report.case,
        "w": report.w,
        "conditions": [{"name": c.name, "value": c.value, "pass": c.value >= 0}
                       for c in report.conditions],
        "verdict_criterion": report.verdict_criterion,
        "verdict_groebner": report.verdict_groebner,
        "agree": report.agree,
        "reordered": report.reordered,
        "permuted_degrees": list(report.permuted_degrees) if report.permuted_degrees else None,
    }
