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
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import AnomalyError, RefusalError
from .groebner import Binomial, BinomialBasis, canonical, is_interreduced
from .monomials import AFFINE_ORDER, Monomial

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

    def to_json(self) -> dict:
        return self.as_dict()


@dataclass(frozen=True)
class ConditionValue:
    """One evaluated inequality, normalized to `value >= 0` form."""

    name: str
    value: int

    @property
    def passed(self) -> bool:
        return self.value >= 0

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value, "pass": self.passed}


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


def generators(data: BresinskyData, m: int) -> tuple[Binomial, ...]:
    """The five defining binomials of the toric ideal at shift m.

    Only the first and fourth pick up the shift: their x1 and x4
    exponents each grow by m.
    """
    m = _shift_index(m)
    d = data
    return tuple(
        _oriented(lhs, rhs)
        for lhs, rhs in (
            ({1: d.d1 + m}, {3: d.d13, 4: d.d14 + m}),
            ({2: d.d2}, {1: d.d21, 3: d.d23}),
            ({3: d.d3}, {2: d.d32, 4: d.d34}),
            ({1: d.d41 + m, 2: d.d42}, {4: d.d4 + m}),
            ({2: d.d42, 3: d.d13}, {1: d.d21, 4: d.d34}),
        )
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


def extra_binomials(data: BresinskyData, m: int) -> tuple[Binomial, ...]:
    """The case-2 companions of the five generators, in the order
    p_1..p_{w-2}, q_1..q_{w-2}, r.

    The i = 0 instances of p and q coincide with two of the generators
    and are never re-emitted, so for w = 2 the result is (r,).  The
    branch of r follows the sign of d1 + m - w*d21.  A negative exponent
    here would mean the case assumptions are violated; it surfaces as a
    ValueError from the monomial constructor.
    """
    d = data
    w = compute_w(data, m)
    p = tuple(
        _oriented(
            {2: (i + 1) * d.d2 - d.d32, 3: d.d3 - (i + 1) * d.d23},
            {1: (i + 1) * d.d21, 4: d.d34},
        )
        for i in range(1, w - 1)
    )
    q = tuple(
        _oriented(
            {1: d.d1 + m - (i + 1) * d.d21, 2: (i + 1) * d.d2 - d.d32},
            {3: i * d.d23, 4: d.d4 + m},
        )
        for i in range(1, w - 1)
    )
    if d.d1 + m - w * d.d21 > 0:
        tail = {1: w * d.d21, 3: w * d.d23 - d.d3, 4: d.d34}
    else:
        tail = {1: w * d.d21 - d.d1 - m, 3: (w - 1) * d.d23, 4: d.d4 + m}
    return p + q + (_oriented({2: w * d.d2 - d.d32}, tail),)


def _oriented(lhs: Mapping[int, int], rhs: Mapping[int, int]) -> Binomial:
    """The binomial of two power maps, led by the larger side."""
    b = Binomial.from_pair(Monomial.from_powers(lhs), Monomial.from_powers(rhs), AFFINE_ORDER)
    assert b is not None  # the two sides have disjoint supports
    return b


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
    s = d.d2 - d.d21 - d.d23  # negative in case 2
    c4 = ConditionValue("(w-1)(d2-d21-d23)+d3-d32-d34", (w - 1) * s + d.d3 - d.d32 - d.d34)
    c5 = ConditionValue(
        "(w-1)(d2-d21-d23)+d1+d23-d4-d32", (w - 1) * s + d.d1 + d.d23 - d.d4 - d.d32
    )
    branch_positive = d.d1 + m - w * d.d21 > 0
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

    elems = list(generators(data, m))
    if cc.case == 2:
        elems.extend(extra_binomials(data, m))

    basis = BinomialBasis(
        canonical(elems, AFFINE_ORDER),
        AFFINE_ORDER,
        is_groebner_verified=True,
        is_reduced=is_interreduced(elems),
    )
    return ClosedFormBasis(basis=basis, case=cc.case)


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
        best = min(best, t * sx + (z + 1) * ak)
    c = best // ai
    if c > min(aj // math.gcd(ai, aj), ak // math.gcd(ai, ak)):
        return None
    h = math.gcd(aj, ak)
    step = ak // h
    x = (best // h) * pow(aj // h, -1, step) % step or step
    reps = []
    while best - x * aj >= ak:
        reps.append((x, (best - x * aj) // ak))
        x += step
    return c, reps


def _solve_parameters(a: Vec4) -> list[BresinskyData]:
    """All parameter sets inducing `a` in role order.

    Each critical binomial gives its row sum and its two off-diagonal
    parameters; every combination whose row sums match
    (d1 = d21+d41, d2 = d32+d42, d3 = d13+d23, d4 = d14+d34) is kept if
    it induces `a` again.
    """
    rows = []
    for row in _ROWS:
        found = _least_representations(a, *row)
        if found is None:
            return []
        rows.append(found)
    (d1, r1), (d2, r2), (d3, r3), (d4, r4) = rows
    sols = []
    for (d13, d14), (d21, d23), (d32, d34), (d41, d42) in product(r1, r2, r3, r4):
        if (d21 + d41, d32 + d42, d13 + d23, d14 + d34) != (d1, d2, d3, d4):
            continue
        data = BresinskyData(d21, d41, d32, d42, d13, d23, d14, d34)
        if a_from_d(data) == a:
            sols.append(data)
    return sols


def d_from_a(a: Iterable[int]) -> Optional[BresinskyData]:
    """Recover the parameters from a degree vector in role order.

    Returns None when no parameter set induces the vector, i.e. the curve
    is not of this form in the given coordinate order.  More than one
    solution would contradict uniqueness of the parameter system and
    raises AnomalyError.
    """
    vec = _validated_vector(a)
    sols = _solve_parameters(vec)
    if len(sols) > 1:
        raise AnomalyError(
            f"{len(sols)} parameter solutions for {vec}; the parameter system must be unique"
        )
    return sols[0] if sols else None


def d_from_a_any_order(
    a: Iterable[int],
) -> list[tuple[tuple[int, int, int, int], BresinskyData]]:
    """Try every coordinate permutation that puts a strict maximum last.

    Returns all (permutation, parameters) hits; `permutation` maps target
    positions to source indices, i.e. permuted[i] = a[permutation[i]].
    A vector whose maximum is tied admits no valid permutation and yields
    the empty list.
    """
    return list(_any_order_hits(a))


def _any_order_hits(a: Iterable[int]) -> Iterator[tuple[Vec4, BresinskyData]]:
    """The hits of `d_from_a_any_order`, in its order, solved one at a time
    so that a caller wanting only the first stops there."""
    vec = _validated_vector(a)
    seen: set[Vec4] = set()
    for perm in permutations(range(4)):
        b = tuple(vec[i] for i in perm)
        if b in seen or degree_refusal(b) is not None:
            continue
        seen.add(b)
        data = d_from_a(b)
        if data is not None:
            yield perm, data
