"""Parameter system for Gorenstein non-complete-intersection monomial
curves in 4-space.

Such a curve is described by eight positive integers d21, d41, d32, d42,
d13, d23, d14, d34 with row sums d1 = d21+d41, d2 = d32+d42,
d3 = d13+d23, d4 = d14+d34.  They determine the degree vector a, a shift
direction v along which the presentation persists for every m >= 0, and
the five defining binomials of the toric ideal.  This module implements
the parameter <-> degree-vector correspondence in both directions, the
degree vector of each family member, the w statistic, the extra
binomials that enter the second case, and the closed-form Groebner bases
available when the case conditions hold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import AnomalyError, RefusalError
from .groebner import BinomialBasis, ExponentPair, _canonical_pairs, is_interreduced
from .monomials import AFFINE_ORDER

SKIP_GCD = "gcd>1"
SKIP_MAX = "max-coordinate fails"
SKIP_FORM = "not Bresinsky form"

Vec4 = tuple[int, int, int, int]


def degree_refusal(deg: Sequence[int]) -> Optional[str]:
    """Why a degree vector is outside the hypotheses both decision routes
    are stated under: SKIP_GCD when its entries share a factor, SKIP_MAX
    when its fourth entry is not the strict maximum, None when it is in."""
    if math.gcd(*deg) != 1:
        return SKIP_GCD
    if not all(deg[3] > deg[i] for i in range(3)):
        return SKIP_MAX
    return None


@dataclass(frozen=True)
class BresinskyData:
    """The eight base parameters.  Row sums d1..d4 are derived.

    All eight must be positive integers; every constraint of the
    parameter system (di > 1, and each d_ij strictly between 0 and its
    row sum) then holds automatically.
    """

    d21: int
    d41: int
    d32: int
    d42: int
    d13: int
    d23: int
    d14: int
    d34: int

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if operator.index(value) < 1:
                raise ValueError(f"parameter {name} must be positive, got {value}")

    @property
    def d1(self) -> int:
        return self.d21 + self.d41

    @property
    def d2(self) -> int:
        return self.d32 + self.d42

    @property
    def d3(self) -> int:
        return self.d13 + self.d23

    @property
    def d4(self) -> int:
        return self.d14 + self.d34

    def as_dict(self) -> dict[str, int]:
        return {
            "d21": self.d21,
            "d41": self.d41,
            "d32": self.d32,
            "d42": self.d42,
            "d13": self.d13,
            "d23": self.d23,
            "d14": self.d14,
            "d34": self.d34,
        }


@dataclass(frozen=True)
class ConditionValue:
    """One evaluated inequality, normalized to `value >= 0` form."""

    name: str
    value: int

    @property
    def passed(self) -> bool:
        return self.value >= 0


@dataclass(frozen=True)
class CaseConditions:
    """Which case applies and the evaluated condition values.

    Case 1 is d2 >= d21 + d23 (three conditions); case 2 is the strict
    opposite (five conditions plus exactly one of two, selected by the
    sign of d1 + m - w*d21, recorded in `branch_positive`).
    """

    case: int
    w: Optional[int]
    branch_positive: Optional[bool]
    conditions: tuple[ConditionValue, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def first_failing(self) -> Optional[ConditionValue]:
        for c in self.conditions:
            if not c.passed:
                return c
        return None


@dataclass(frozen=True)
class ClosedFormBasis:
    """A closed-form Groebner basis with its case tag."""

    basis: BinomialBasis
    case: int


def a_from_d(data: BresinskyData) -> Vec4:
    """Degree vector induced by the parameters."""
    d = data
    return (
        d.d2 * d.d4 * d.d13 + d.d42 * d.d14 * d.d23,
        d.d3 * d.d4 * d.d21 + d.d41 * d.d34 * d.d23,
        d.d1 * d.d2 * d.d34 + d.d32 * d.d21 * d.d14,
        d.d1 * d.d3 * d.d42 + d.d13 * d.d32 * d.d41,
    )


def shift_vector(data: BresinskyData) -> Vec4:
    """Shift direction of the family; first and last entries coincide."""
    d = data
    v1 = d.d2 * d.d3 - d.d23 * d.d32
    return (v1, d.d21 * d.d3 + d.d23 * d.d34, d.d2 * d.d34 + d.d21 * d.d32, v1)


def _shift_index(m: int) -> int:
    """m as a shift index: a non-integer is a TypeError (a float is not
    truncated to the member it rounds to), a negative one a ValueError."""
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"shift index must be non-negative, got {m}")
    return m


def member_degrees(data: BresinskyData, m: int) -> Vec4:
    """Degree vector a + m*v of the family member at shift m.

    Refuses (SKIP_GCD) when the base vector a has a common factor,
    before looking at m; m is then read by `_shift_index`.  Whether the
    member itself is in the hypotheses is `degree_refusal`'s to say.
    """
    base = a_from_d(data)
    if math.gcd(*base) != 1:
        raise RefusalError(SKIP_GCD, {"degrees": base})
    m = _shift_index(m)
    return tuple(a + m * v for a, v in zip(base, shift_vector(data)))


def generators(data: BresinskyData, m: int) -> tuple[ExponentPair, ...]:
    """The five defining binomials of the toric ideal at shift m, as
    (lead, trail) pairs of x1..x4 exponent tuples led by the larger side
    under `AFFINE_ORDER`.

    Only the first and fourth pick up the shift: their x1 and x4
    exponents each grow by m.
    """
    return tuple(_canonical_pairs((g,), AFFINE_ORDER)[0] for g in _generator_exponents(data, m))


def _generator_exponents(data: BresinskyData, m: int) -> tuple[ExponentPair, ...]:
    """The five generators of `generators` as unoriented (lhs, rhs) pairs
    of x1..x4 exponent tuples: the one place their formulas are written,
    read as they are by the Groebner verdict."""
    m = _shift_index(m)
    d = data
    return (
        ((d.d1 + m, 0, 0, 0), (0, 0, d.d13, d.d14 + m)),
        ((0, d.d2, 0, 0), (d.d21, 0, d.d23, 0)),
        ((0, 0, d.d3, 0), (0, d.d32, 0, d.d34)),
        ((d.d41 + m, d.d42, 0, 0), (0, 0, 0, d.d4 + m)),
        ((0, d.d42, d.d13, 0), (d.d21, 0, 0, d.d34)),
    )


def compute_w(data: BresinskyData, m: int) -> int:
    """The least l >= 1 with d1 + m - l*d21 <= 0 or d3 - l*d23 <= 0,
    that is min(ceil((d1 + m) / d21), ceil(d3 / d23)).

    Always >= 2, because d21 < d1 and d23 < d3 rule out l = 1.  As m
    grows, w never decreases, and it stays at ceil(d3 / d23) from
    m = max(0, (ceil(d3 / d23) - 1) * d21 - d1 + 1) on.
    """
    m = _shift_index(m)
    return min(-(-(data.d1 + m) // data.d21), -(-data.d3 // data.d23))


def _extra_exponents(
    data: BresinskyData, m: int, w: int, branch_positive: bool
) -> tuple[ExponentPair, ...]:
    """The case-2 companions of the five generators as unoriented (lhs,
    rhs) pairs of x1..x4 exponent tuples, for the w and branch that
    `case_conditions` finds at shift m, in the order p_1..p_{w-2},
    q_1..q_{w-2}, r: the one place their formulas are written.

    The i = 0 instances of p and q coincide with two of the generators
    and are never re-emitted, so for w = 2 the result is (r,).  The
    branch of r follows the sign of d1 + m - w*d21.  A negative exponent
    here would mean the case assumptions are violated; `_canonical_pairs`
    refuses it with a ValueError.
    """
    d = data
    p = tuple(
        ((0, (i + 1) * d.d2 - d.d32, d.d3 - (i + 1) * d.d23, 0), ((i + 1) * d.d21, 0, 0, d.d34))
        for i in range(1, w - 1)
    )
    q = tuple(
        ((d.d1 + m - (i + 1) * d.d21, (i + 1) * d.d2 - d.d32, 0, 0), (0, 0, i * d.d23, d.d4 + m))
        for i in range(1, w - 1)
    )
    if branch_positive:
        tail = (w * d.d21, 0, w * d.d23 - d.d3, d.d34)
    else:
        tail = (w * d.d21 - d.d1 - m, 0, (w - 1) * d.d23, d.d4 + m)
    return p + q + (((0, w * d.d2 - d.d32, 0, 0), tail),)


def case_conditions(data: BresinskyData, m: int) -> CaseConditions:
    """Evaluate the per-case condition set at shift m.

    Every condition is reported as an integer that must be >= 0; the
    names spell out the formula evaluated.
    """
    m = _shift_index(m)
    d = data
    c1 = ConditionValue("d1-d13-d14", d.d1 - d.d13 - d.d14)
    c2 = ConditionValue("d3-d32-d34", d.d3 - d.d32 - d.d34)
    c3 = ConditionValue("d13+d42-d21-d34", d.d13 + d.d42 - d.d21 - d.d34)

    if d.d2 >= d.d21 + d.d23:
        return CaseConditions(case=1, w=None, branch_positive=None, conditions=(c1, c2, c3))

    w = compute_w(data, m)
    branch_positive = d.d1 + m - w * d.d21 > 0  # the branch sign of case 2
    s = d.d2 - d.d21 - d.d23  # negative in case 2
    c4 = ConditionValue("(w-1)(d2-d21-d23)+d3-d32-d34", (w - 1) * s + d.d3 - d.d32 - d.d34)
    c5 = ConditionValue(
        "(w-1)(d2-d21-d23)+d1+d23-d4-d32", (w - 1) * s + d.d1 + d.d23 - d.d4 - d.d32
    )
    if branch_positive:
        c67 = ConditionValue("w(d2-d21-d23)+d3-d32-d34", w * s + d.d3 - d.d32 - d.d34)
    else:
        c67 = ConditionValue(
            "w(d2-d21-d23)+d1+d23-d4-d32", w * s + d.d1 + d.d23 - d.d4 - d.d32
        )
    return CaseConditions(
        case=2, w=w, branch_positive=branch_positive, conditions=(c1, c2, c3, c4, c5, c67)
    )


def closed_form_basis(data: BresinskyData, m: int) -> ClosedFormBasis:
    """The closed-form Groebner basis at shift m, when available.

    Case 1 returns the five generators, which form the reduced Groebner
    basis; case 2 returns them together with the extra binomials, a
    Groebner basis.  Either is flagged reduced when no lead divides
    another lead or any trail.  Refuses (naming the first
    failing condition) when the case conditions do not hold, and when the
    member degrees are not coprime.
    """
    case, elements, reduced = _closed_form(data, m)
    basis = BinomialBasis(elements, AFFINE_ORDER, is_groebner_verified=True, is_reduced=reduced)
    return ClosedFormBasis(basis=basis, case=case)


def _closed_form(data: BresinskyData, m: int) -> tuple[int, tuple[ExponentPair, ...], bool]:
    """`closed_form_basis` as its case, its (lead, trail) exponent pairs
    in canonical order and its reduced flag, refused as it refuses: the
    one place the closed form is built, from exponent tuples, which the
    CLI's replies read as they are."""
    deg = member_degrees(data, m)
    if degree_refusal(deg) == SKIP_GCD:
        raise RefusalError(SKIP_GCD, {"m": m, "degrees": deg})

    cc = case_conditions(data, m)
    failing = cc.first_failing()
    if failing is not None:
        raise RefusalError(
            "conditions not met",
            {"case": cc.case, "condition": failing.name, "value": failing.value},
        )

    pairs = _generator_exponents(data, m)
    if cc.case == 2:
        # w and the branch as the conditions found them, not worked out again
        pairs += _extra_exponents(data, m, cc.w, cc.branch_positive)
    elements = _canonical_pairs(pairs, AFFINE_ORDER)
    return cc.case, elements, is_interreduced(elements)


def _validated_vector(a: Iterable[int]) -> Vec4:
    vec = tuple(operator.index(x) for x in a)
    if len(vec) != 4:
        raise ValueError(f"degree vector must have 4 entries, got {len(vec)}")
    if any(x < 1 for x in vec):
        raise ValueError(f"degree entries must be positive: {vec}")
    if math.gcd(*vec) != 1:
        raise RefusalError(SKIP_GCD, {"degrees": vec})
    return vec


#: The critical binomials in role order, as (i, j, k) for
#: d_i * a_i = d_ij * a_j + d_ik * a_k (0-based positions).
_ROWS = ((0, 2, 3), (1, 0, 2), (2, 1, 3), (3, 0, 1))


def _least_hit(a: int, m: int, lo: int, hi: int) -> Optional[int]:
    """The least d >= 0 with lo <= (a*d mod m) <= hi, for 0 <= lo <= hi < m;
    None when a*d mod m never lands there.

    If a multiple of a lies in [lo, hi] the first one answers.  Otherwise
    a*d - m*q lands in [lo, hi] exactly when m*q mod a lies in
    [-hi mod a, -lo mod a], so the least such q solves the same problem
    for (m mod a, a), as in Euclid's algorithm, and d is the least d with
    a*d >= lo + m*q.  The reduction runs in a loop, not by recursion, so
    the depth of the Euclidean chain is not limited by the stack.
    """
    lifts = []
    while True:
        a %= m
        if lo == 0:
            d = 0
            break
        if a == 0:
            return None
        d = -(-lo // a)
        if a * d <= hi:
            break
        lifts.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    for a, m, lo in reversed(lifts):
        d = -(-(lo + m * d) // a)
    return d


def _least_representations(a: Vec4, i: int, j: int, k: int) -> Optional[tuple[int, list]]:
    """The least c with c*a_i = x*a_j + y*a_k for some x, y >= 1, with
    every such (x, y) at that c; None when that c exceeds the bound.

    For a vector of the parameter form, d_i is the least c with c*a_i in
    the semigroup of the other three degrees (Herzog 1970, Bresinsky
    1975).  At c = a_j / gcd(a_i, a_j) the product c*a_i is a multiple
    of a_j, so d_i never exceeds the smaller of these over j and k; a
    larger least c means the row has no solution.

    The least c minimises x*a_j + y*a_k over x, y >= 1 with a_i dividing
    it.  With g = gcd(a_k, a_i), divisibility by g forces x = s*t with
    s = g / gcd(g, a_j) and t >= 1, and then divisibility by M = a_i / g
    fixes y modulo M: the least y is z(t) + 1 with
    z(t) = (-gamma*t - 1) mod M, gamma = (s*a_j/g) * (a_k/g)^-1 mod M.
    The objective s*t*a_j + (z(t) + 1)*a_k grows with t for a fixed z, so
    the optimum sits at a strict prefix minimum (a record) of z.  From a
    record (t, z) the next one is t + d for the least d >= 1 with
    delta = gamma*d mod M in [1, z], where z falls by delta.  While z
    stays >= delta the same d is still the least such step, so it repeats
    floor(z / delta) times; the objective is linear along that run, and
    only its far end needs scoring.  Then z < delta, so delta falls from
    run to run; the runs follow the continued fraction of gamma / M
    (the three-distance theorem, Sós 1958), so there are O(log M) of
    them, each found by `_least_hit` in O(log M) steps.  At the least c,
    x is fixed modulo a_k / gcd(a_j, a_k) by a modular inverse, which
    lists every representation.
    """
    ai, aj, ak = a[i], a[j], a[k]
    g = math.gcd(ak, ai)
    gj = math.gcd(g, aj)
    sx = g // gj * aj  # the weight of one step of t: s*a_j
    big_m = ai // g
    gamma = aj // gj * pow(ak // g, -1, big_m) % big_m
    t, z = 1, (-gamma - 1) % big_m
    best = sx + (z + 1) * ak
    while z:
        d = _least_hit(gamma, big_m, 1, z)
        if d is None:
            break
        delta = gamma * d % big_m
        t += z // delta * d
        z %= delta
        score = t * sx + (z + 1) * ak
        if score < best:
            best = score
    c = best // ai
    if c > ak // g or c > aj // math.gcd(ai, aj):
        return None
    h = math.gcd(aj, ak)
    step = ak // h
    x = (best // h) * pow(aj // h, -1, step) % step or step
    reps = []
    while best - x * aj >= ak:
        reps.append((x, (best - x * aj) // ak))
        x += step
    return c, reps


def _solved_row(a: Vec4, i: int, j: int, k: int, solved: dict) -> Optional[tuple[int, list]]:
    """`_least_representations(a, i, j, k)`, kept in `solved` under the
    three values it reads, a_i, a_j and a_k."""
    key = (a[i], a[j], a[k])
    if key not in solved:
        solved[key] = _least_representations(a, i, j, k)
    return solved[key]


def _solve_parameters(a: Vec4, solved: dict) -> list[BresinskyData]:
    """All parameter sets inducing `a` in role order, in the order of the
    x1-row and x2-row representations they use.

    The x1 and x2 rows already fix every parameter.  A representation
    (d13, d14) of row 1 and (d21, d23) of row 2 give d3 = d13 + d23 and
    d41 = d1 - d21; with d4 = d14 + d34, the a2 equation
    a2 = d3*d4*d21 + d41*d34*d23 is linear in d34, and then the a1
    equation a1 = d2*d4*d13 + d42*d14*d23 is linear in d42 = d2 - d32.  A
    pair of representations is a candidate when these give positive
    integers.  The candidate's vector a' = `a_from_d` then equals `a`:
    a'1 = a1 and a'2 = a2 by construction, and a' satisfies the x1 and x2
    rows as `a` does (their binomials lie in the toric ideal of a'), so
    d23*a'3 = d2*a2 - d21*a1 = d23*a3 and then
    d14*a'4 = d1*a1 - d13*a3 = d14*a4.  A candidate is kept when the x3
    and x4 rows confirm it: their least c is d3 and d4.  The rows of a'
    hold, so (d32, d34) and (d41, d42) are then among their
    representations.  So the kept sets are exactly the combinations of
    one representation per row whose row sums match and which induce `a`
    again, in the same order, and an order without a candidate never
    solves its x3 and x4 rows.

    `_least_representations(a, i, j, k)` reads only a_i, a_j and a_k, so
    `solved` keeps its answers keyed by those three values in row order
    (`_solved_row`); one dict serves every coordinate order that one
    search tries, and its caller owns it.
    """
    x1 = _solved_row(a, *_ROWS[0], solved)
    if x1 is None:
        return []
    x2 = _solved_row(a, *_ROWS[1], solved)
    if x2 is None:
        return []
    a1, a2 = a[0], a[1]
    (d1, r1), (d2, r2) = x1, x2
    sols = []
    for d13, d14 in r1:
        for d21, d23 in r2:
            d41 = d1 - d21
            if d41 < 1:
                continue
            d3 = d13 + d23
            d34, r = divmod(a2 - d3 * d14 * d21, d3 * d21 + d41 * d23)
            if r or d34 < 1:
                continue
            d4 = d14 + d34
            d42, r = divmod(a1 - d2 * d4 * d13, d14 * d23)
            if r or not 0 < d42 < d2:
                continue
            x3 = _solved_row(a, *_ROWS[2], solved)
            if x3 is None or x3[0] != d3:
                continue
            x4 = _solved_row(a, *_ROWS[3], solved)
            if x4 is None or x4[0] != d4:
                continue
            sols.append(BresinskyData(d21, d41, d2 - d42, d42, d13, d23, d14, d34))
    return sols


def _recovered(vec: Vec4, solved: dict) -> Optional[BresinskyData]:
    """The one parameter set inducing the checked vector `vec` in role
    order, or None; the one place a second solution raises AnomalyError.
    `solved` is `_solve_parameters`' row dict."""
    sols = _solve_parameters(vec, solved)
    if len(sols) > 1:
        raise AnomalyError(
            f"{len(sols)} parameter solutions for {vec}; the parameter system must be unique"
        )
    return sols[0] if sols else None


def d_from_a(a: Iterable[int]) -> Optional[BresinskyData]:
    """Recover the parameters from a degree vector in role order.

    Returns None when no parameter set induces the vector, i.e. the curve
    is not of this form in the given coordinate order.  More than one
    solution would contradict uniqueness of the parameter system and
    raises AnomalyError.
    """
    return _recovered(_validated_vector(a), {})


def d_from_a_any_order(
    a: Iterable[int],
) -> list[tuple[tuple[int, int, int, int], BresinskyData]]:
    """Try every coordinate permutation that puts a strict maximum last.

    Returns all (permutation, parameters) hits, in the lexicographic
    order of the permutations; `permutation` maps target positions to
    source indices, i.e. permuted[i] = a[permutation[i]].  A permutation
    whose vector an earlier one already gave is not tried again.  A
    vector whose maximum is tied admits no valid permutation and yields
    the empty list.  The hits, their order and the exceptions are those
    of `d_from_a` on each of the 24 permutations in turn, skipping the
    ones `degree_refusal` refuses; `_any_order_hits` says why it need not
    try all 24.
    """
    return list(_any_order_hits(a))


def _any_order_hits(a: Iterable[int]) -> Iterator[tuple[Vec4, BresinskyData]]:
    """The hits of `d_from_a_any_order`, in its order, solved one at a time
    so that a caller wanting only the first stops there.

    The vector is checked once.  `degree_refusal` accepts a permuted
    vector only when its last entry is the strict maximum, since the gcd
    does not depend on the order and the check has passed; so a tied
    maximum leaves no order to try, and otherwise the orders it accepts
    are the permutations of the other three indices, in ascending
    lexicographic order, with the index of the maximum appended: the
    lexicographic walk over all 24 restricted to those it accepts.  The
    orders share one row dict (see `_solve_parameters`), so each distinct
    critical row is solved once per search; it is dropped with the
    search.  An order solves its x3 and x4 rows only when its x1 and x2
    rows give a candidate, so most orders cost at most two row solves,
    and a `BresinskyData` is built only for a confirmed candidate.
    """
    vec = _validated_vector(a)
    top = max(vec)
    if vec.count(top) > 1:
        return
    last = vec.index(top)
    solved: dict = {}
    seen: set[Vec4] = set()
    for p, q, r in permutations([i for i in range(4) if i != last]):
        b = (vec[p], vec[q], vec[r], top)
        if b in seen:
            continue
        seen.add(b)
        data = _recovered(b, solved)
        if data is not None:
            yield (p, q, r, last), data
