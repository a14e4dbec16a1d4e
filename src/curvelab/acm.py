"""The two arithmetically-Cohen-Macaulay decision procedures and the
homogeneous side of the picture.

The criterion route evaluates a handful of integer inequalities on the
parameters; the Groebner route computes a Groebner basis under a reverse
lexicographic order with x4 least and checks that no minimal generator
of the initial ideal (a lead of the basis that no other lead divides) is
divisible by x4.  The two are mathematically equivalent, so
`cross_validate` treats any disagreement as a hard implementation
failure and aborts with a diagnostic dump.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .bresinsky import (
    SKIP_FORM,
    SKIP_GCD,
    BresinskyData,
    ConditionValue,
    Vec4,
    _any_order_hits,
    _validated_vector,
    case_conditions,
    closed_form_basis,
    degree_refusal,
    generators,
    member_degrees,
)
from .errors import AmbientMismatchError, DisagreementError, RefusalError, StepBoundExceeded
from .groebner import (
    DEFAULT_STEP_BOUND,
    Binomial,
    BinomialBasis,
    Packing,
    _buchberger,
    _minimal_packed,
    _unpacked,
    canonical,
)
from .monomials import AFFINE_ORDER, PROJECTIVE_ORDER, Monomial, MonomialOrder

SKIP_STEP_BOUND = "step bound exceeded"

#: x4 packed under AFFINE_ORDER, the divisor the verdict tests leads against.
_X4 = Packing(AFFINE_ORDER).pack(Monomial.from_powers({4: 1}))


@dataclass(frozen=True)
class CriterionResult:
    """Verdict of the inequality criterion, with the evaluated values."""

    acm: bool
    case: int
    w: Optional[int]
    conditions: tuple[ConditionValue, ...]


@dataclass(frozen=True)
class GroebnerVerdict:
    """Verdict of the Groebner oracle.

    `x4_leads` lists the minimal initial-ideal generators divisible by
    x4; the verdict is ACM exactly when it is empty.  `leads` and
    `trails` are the packed elements of the Buchberger basis they were
    read from, under `order`; `basis` unpacks them on first access, for
    diagnostics, and equals `buchberger(gens, order)` element for element.
    """

    acm: bool
    x4_leads: tuple[Monomial, ...]
    order: MonomialOrder = field(repr=False)
    leads: tuple[int, ...] = field(repr=False)
    trails: tuple[int, ...] = field(repr=False)

    @cached_property
    def basis(self) -> BinomialBasis:
        return _unpacked(self.order, Packing(self.order), self.leads, self.trails)


@dataclass(frozen=True)
class AcmReport:
    """Per-member verdict record.

    `applicable` is False for skipped members, with the reason in
    `skip_reason`.  When the fourth coordinate of the shifted vector is
    not the strict maximum but some permutation of it is analyzable, the
    verdicts are computed in permuted coordinates and labelled as such
    via `reordered` and `permuted_degrees`.  `x4_initial` carries the
    string forms of any x4-bearing minimal initial generators; it is
    diagnostic and not part of the serialized record.
    """

    m: int
    degrees: Vec4
    applicable: bool
    skip_reason: Optional[str] = None
    case: Optional[int] = None
    w: Optional[int] = None
    conditions: tuple[ConditionValue, ...] = ()
    verdict_criterion: Optional[bool] = None
    verdict_groebner: Optional[bool] = None
    agree: Optional[bool] = None
    reordered: bool = False
    permuted_degrees: Optional[Vec4] = None
    x4_initial: tuple[str, ...] = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "degrees": list(self.degrees),
            "applicable": self.applicable,
            "skip_reason": self.skip_reason,
            "case": self.case,
            "w": self.w,
            "conditions": [c.to_json() for c in self.conditions],
            "verdict_criterion": self.verdict_criterion,
            "verdict_groebner": self.verdict_groebner,
            "agree": self.agree,
            "reordered": self.reordered,
            "permuted_degrees": list(self.permuted_degrees) if self.permuted_degrees else None,
        }


def acm_by_criterion(data: BresinskyData, m: int) -> CriterionResult:
    """Decide Cohen-Macaulayness of the projective closure at shift m by
    the inequality criterion.

    Refuses when the member degrees are not coprime or their fourth entry
    is not the strict maximum; the criterion is only stated under those
    hypotheses.
    """
    deg = member_degrees(data, m)
    reason = degree_refusal(deg)
    if reason is not None:
        raise RefusalError(reason, {"m": m, "degrees": deg})
    cc = case_conditions(data, m)
    return CriterionResult(acm=cc.all_pass, case=cc.case, w=cc.w, conditions=cc.conditions)


def acm_by_groebner(
    degrees: Iterable[int],
    gens: Iterable[Binomial],
    step_bound: int = DEFAULT_STEP_BOUND,
) -> GroebnerVerdict:
    """Decide Cohen-Macaulayness by the initial-ideal test.

    Computes a Groebner basis of the ideal generated by `gens` under the
    fixed order x2 > x1 > x3 > x4 (any reverse lexicographic order with
    x4 least gives the same verdict; this one is pinned for deterministic
    reports) and returns ACM iff no minimal generator of the initial
    ideal is divisible by x4.
    """
    vec = _validated_vector(degrees)
    reason = degree_refusal(vec)
    if reason is not None:
        raise RefusalError(reason, {"degrees": vec})
    pk, leads, trails = _buchberger(gens, AFFINE_ORDER, step_bound)
    _, minimal, _ = _minimal_packed(pk, leads, trails)
    # x4 divides p, the divisibility test of _first_reducer inlined; only
    # those leads are unpacked
    g = pk.guards
    x4_leads = tuple(pk.unpack(p) for p in minimal if ((p | g) - _X4) & g == g)
    return GroebnerVerdict(not x4_leads, x4_leads, AFFINE_ORDER, tuple(leads), tuple(trails))


def homogenize(b: Binomial) -> Binomial:
    """Homogenize a 4-variable binomial: pad the lower-degree side with
    the needed power of x0.  The result is oriented under the extended
    order, which keeps the original lead in the lead position."""
    if b.nvars != 4:
        raise AmbientMismatchError(f"homogenize expects a 4-variable binomial, got {b.nvars}")
    dl = b.lead.degree()
    dt = b.trail.degree()
    lead = Monomial((max(0, dt - dl),) + b.lead.exponents)
    trail = Monomial((max(0, dl - dt),) + b.trail.exponents)
    out = Binomial.from_pair(lead, trail, PROJECTIVE_ORDER)
    assert out is not None
    return out


def check_h_membership(b: Binomial, degrees: Iterable[int]) -> bool:
    """Membership test for the homogenized toric ideal.

    True iff the two sides have equal total degree and equal weight under
    (a1..a4) on x1..x4 with weight 0 on x0.  Equality of the
    complementary weights then follows, since that weight is
    a4 * totaldegree minus this one.
    """
    if b.nvars != 5:
        raise AmbientMismatchError(f"expected a 5-variable binomial, got {b.nvars}")
    vec = tuple(operator.index(x) for x in degrees)
    if len(vec) != 4:
        raise ValueError(f"degree vector must have 4 entries, got {len(vec)}")
    tweights = (0,) + vec
    return (
        b.lead.degree() == b.trail.degree()
        and b.lead.weight(tweights) == b.trail.weight(tweights)
    )


@dataclass(frozen=True)
class HomogeneousBasis(BinomialBasis):
    """A basis over the homogenized ring, validated on construction:
    every element must be degree-homogeneous and lie in the homogenized
    toric ideal of `degrees`."""

    degrees: Vec4 = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        for b in self.elements:
            if b.lead.degree() != b.trail.degree():
                raise ValueError(f"inhomogeneous element: {b}")
            if not check_h_membership(b, self.degrees):
                raise ValueError(f"element fails homogeneous membership for {self.degrees}: {b}")


def homogenized(basis: BinomialBasis, degrees: Vec4) -> HomogeneousBasis:
    """Element-wise homogenization of a Groebner basis of the toric ideal
    of `degrees`, sorted canonically under the extended order.  That order
    is degree-compatible, so no lead gains x0: the result is a Groebner
    basis, and reduced exactly when `basis` is."""
    return HomogeneousBasis(
        canonical((homogenize(b) for b in basis.elements), PROJECTIVE_ORDER),
        PROJECTIVE_ORDER,
        is_groebner_verified=basis.is_groebner_verified,
        is_reduced=basis.is_reduced,
        degrees=degrees,
    )


def homogeneous_basis(data: BresinskyData, m: int) -> HomogeneousBasis:
    """Element-wise homogenization of the closed-form basis at shift m.

    Only defined when the projective closure is Cohen-Macaulay (which is
    exactly when the closed form exists); refuses otherwise.  The output
    is a Groebner basis of the homogenized ideal under the extended order
    with x0 least, and reduced exactly when the closed form is.
    """
    crit = acm_by_criterion(data, m)
    if not crit.acm:
        failing = next(c for c in crit.conditions if not c.passed)
        raise RefusalError(
            "not arithmetically Cohen-Macaulay",
            {"m": m, "condition": failing.name, "value": failing.value},
        )
    closed = closed_form_basis(data, m)
    return homogenized(closed.basis, member_degrees(data, m))


def _skip(m: int, degrees: Vec4, reason: str) -> AcmReport:
    return AcmReport(m=m, degrees=degrees, applicable=False, skip_reason=reason)


def _agreement_checked(report: AcmReport, gb: GroebnerVerdict) -> AcmReport:
    if report.agree:
        return report
    dump = json.dumps(
        {
            "report": report.to_dict(),
            "x4_leads": [str(mono) for mono in gb.x4_leads],
            "groebner_basis": gb.basis.to_json(),
        },
        indent=2,
    )
    raise DisagreementError(
        f"verdicts disagree at m={report.m}: criterion={report.verdict_criterion} "
        f"groebner={report.verdict_groebner}",
        report=report,
        dump=dump,
    )


def analyze_member(
    data: BresinskyData,
    m: int,
    step_bound: int = DEFAULT_STEP_BOUND,
) -> AcmReport:
    """Full dual-route analysis of one family member.

    Members whose degrees have a common factor are skipped.  When the
    fourth coordinate is not the strict maximum, the shifted vector is
    re-analyzed in permuted coordinates if some permutation admits the
    parameter form; the verdicts are then labelled as permuted.  A
    disagreement between the two routes raises DisagreementError.
    """
    deg = member_degrees(data, m)
    reason = degree_refusal(deg)
    if reason is None:
        target, tm, tdeg = data, m, deg
    elif reason == SKIP_GCD or deg.count(max(deg)) > 1:
        return _skip(m, deg, reason)
    else:
        hit = next(_any_order_hits(deg), None)
        if hit is None:
            return _skip(m, deg, SKIP_FORM)
        perm, target = hit
        tm, tdeg = 0, tuple(deg[i] for i in perm)

    reordered = reason is not None
    crit = acm_by_criterion(target, tm)
    gb = acm_by_groebner(tdeg, generators(target, tm), step_bound)
    report = AcmReport(
        m=m,
        degrees=deg,
        applicable=True,
        case=crit.case,
        w=crit.w,
        conditions=crit.conditions,
        verdict_criterion=crit.acm,
        verdict_groebner=gb.acm,
        agree=crit.acm == gb.acm,
        reordered=reordered,
        permuted_degrees=tdeg if reordered else None,
        x4_initial=tuple(str(mono) for mono in gb.x4_leads),
    )
    return _agreement_checked(report, gb)


def cross_validate(
    data: BresinskyData,
    m_range: Iterable[int],
    step_bound: int = DEFAULT_STEP_BOUND,
) -> list[AcmReport]:
    """Run the dual-route analysis across a range of shifts.

    Once the base has passed, `analyze_member` returns the skip row of a
    member outside the hypotheses itself; a reduction that runs past the
    step bound is recorded as a skip row too.  Anything else aborts the
    scan: a verdict disagreement, a recovery anomaly and any bug (a stray
    RefusalError included) propagate, since a skip row must never hide
    them.
    """
    member_degrees(data, 0)  # refuse a base with a common factor, even for no shifts
    reports = []
    for m in sorted(set(int(m) for m in m_range)):
        try:
            reports.append(analyze_member(data, m, step_bound=step_bound))
        except StepBoundExceeded:
            reports.append(_skip(m, member_degrees(data, m), SKIP_STEP_BOUND))
    return reports
