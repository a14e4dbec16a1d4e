"""Shared test utilities: monomial builders, an independent comparison
oracle, toric membership and dehomogenization oracles, a brute-force
recovery oracle, a linear-walk oracle for one row of recovery, the packed
normal form on binomials with its tuple-based oracle, an all-pairs
Buchberger oracle, and a seeded generator of valid parameter sets."""

import heapq
import math
from random import Random

from curvelab import (
    AFFINE_ORDER,
    EQUAL,
    LESS,
    Binomial,
    BinomialBasis,
    BresinskyData,
    Monomial,
    StepBoundExceeded,
    a_from_d,
    case_conditions,
    member_degrees,
)
from curvelab.bresinsky import degree_refusal
from curvelab import groebner


def m4(e1=0, e2=0, e3=0, e4=0) -> Monomial:
    return Monomial((e1, e2, e3, e4))


def m5(e0=0, e1=0, e2=0, e3=0, e4=0) -> Monomial:
    return Monomial((e0, e1, e2, e3, e4))


def times(a: Monomial, b: Monomial) -> Monomial:
    """The product a*b: exponents add."""
    assert a.nvars == b.nvars
    return Monomial(tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def bino(lead: Monomial, trail: Monomial) -> Binomial:
    b = Binomial.from_pair(lead, trail, AFFINE_ORDER)
    assert b is not None
    return b


def pair_set(binomials) -> set:
    """Orientation-insensitive view of a collection of binomials."""
    return {frozenset((b.lead.exponents, b.trail.exponents)) for b in binomials}


def toric_membership(b: Binomial, degrees) -> bool:
    """True iff both monomials have equal weight under the degree vector,
    i.e. the binomial lies in the toric ideal of that vector."""
    w = tuple(degrees)
    return b.lead.weight(w) == b.trail.weight(w)


def dehomogenize(b: Binomial) -> Binomial:
    """Set x0 := 1 in a 5-variable binomial and orient it under AFFINE_ORDER."""
    assert b.nvars == 5
    return bino(Monomial(b.lead.exponents[1:]), Monomial(b.trail.exponents[1:]))


def oracle_compare(ma: Monomial, mb: Monomial, priority) -> int:
    """Textbook restatement of the graded reverse lexicographic rule:
    degree first, then the sign at the last position where the exponent
    vectors differ when listed from greatest to least priority (larger
    exponent there loses)."""
    da, db = sum(ma.exponents), sum(mb.exponents)
    if da != db:
        return 1 if da > db else -1
    ids = list(range(5 - ma.nvars, 5))  # x1..x4, or x0..x4
    last = 0
    for vid in priority:
        i = ids.index(vid)
        diff = ma.exponents[i] - mb.exponents[i]
        if diff != 0:
            last = diff
    if last == 0:
        return 0
    return 1 if last < 0 else -1


def monomials_of_degree_at_most(nvars: int, d: int):
    """All exponent vectors with total degree <= d."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(Monomial(tuple(prefix)))
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


def _first_reducer(m: Monomial, elements):
    me = m.exponents
    for g in elements:
        ge = g.lead.exponents
        for a, b in zip(ge, me):
            if a > b:
                break
        else:
            return g
    return None


def normal_form(f: Binomial, basis: BinomialBasis, step_bound: int = groebner.DEFAULT_STEP_BOUND):
    """`groebner._normal_form` on binomials: f, oriented under the basis
    order, and the basis are packed, and the normal form is unpacked;
    None means zero."""
    f = f.oriented(basis.order)
    pk, leads, trails = groebner._pack(basis)
    h = groebner._normal_form(pk.pack(f.lead), pk.pack(f.trail), leads, trails, pk, step_bound)
    return None if h is None else pk.binomial(*h)


def tuple_normal_form(f: Binomial, elements, order, step_bound: int = groebner.DEFAULT_STEP_BOUND):
    """Reference oracle for `groebner._normal_form`: the same strategy
    (smallest-index reducer, lead before trail, the same step count and
    StepBoundExceeded text) on exponent tuples, through `Binomial.rewrite`
    and `MonomialOrder.compare`.  `f` must be oriented under `order`."""
    lead, trail = f.lead, f.trail
    steps = 0
    while True:
        g = _first_reducer(lead, elements)
        if g is not None:
            lead = g.rewrite(lead)
            steps += 1
            if steps > step_bound:
                raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
            c = order.compare(lead, trail)
            if c == EQUAL:
                return None
            if c == LESS:
                lead, trail = trail, lead
            continue
        g = _first_reducer(trail, elements)
        if g is None:
            return Binomial(lead, trail)
        # a rewrite strictly decreases the monomial, so no re-orientation
        # is needed after a trail step
        trail = g.rewrite(trail)
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        if trail.exponents == lead.exponents:
            return None


def plain_buchberger(gens, order, step_bound: int = groebner.DEFAULT_STEP_BOUND) -> BinomialBasis:
    """Reference oracle for `buchberger`: every pair with non-coprime
    leads is normal-formed, smallest lcm first, with no chain criterion,
    on exponent tuples through `s_binomial` and `tuple_normal_form`.  The
    basis it returns may differ from `buchberger`'s; only the reduced
    bases agree."""
    basis = [g.oriented(order) for g in gens]
    heap = []

    def push_pairs(j):
        fj = basis[j]
        for i in range(j):
            lcm = basis[i].lead.lcm(fj.lead)
            if lcm.degree() == basis[i].lead.degree() + fj.lead.degree():
                continue
            heapq.heappush(heap, (order.key(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = groebner.s_binomial(basis[i], basis[j], order)
        if s is None:
            continue
        h = tuple_normal_form(s, basis, order, step_bound)
        if h is not None:
            basis.append(h)
            push_pairs(len(basis) - 1)
    return BinomialBasis(tuple(basis), order, is_groebner_verified=True)
