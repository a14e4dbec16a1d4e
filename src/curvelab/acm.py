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

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .bresinsky import (
    SKIP_FORM,
    SKIP_GCD,
    BresinskyData,
    CaseConditions,
    ConditionValue,
    Vec4,
    _any_order_hits,
    _closed_form,
    _generator_exponents,
    _validated_vector,
    case_conditions,
    degree_refusal,
    member_degrees,
)
from .errors import (
    AmbientMismatchError,
    DegreeLimitExceeded,
    DisagreementError,
    RefusalError,
    StepBoundExceeded,
)
from .groebner import (
    DEFAULT_STEP_BOUND,
    BinomialBasis,
    ExponentPair,
    _binomials,
    _buchberger,
    _canonical_pairs,
    _key,
    buchberger,
)
from .monomials import AFFINE_ORDER, PROJECTIVE_ORDER, Monomial
from .render import basis_json, report_json, to_canonical_json

SKIP_STEP_BOUND = "step bound exceeded"
#: why a disagreement dump holds no rebuilt basis, when a run to the end
#: meets a degree past `groebner.MAX_DEGREE` that the stopped verdict did not
_NOT_REBUILT_DEGREE = "degree limit exceeded"

#: The exponent index of x4, the variable the verdict tests leads for.
_X4 = 3


@dataclass(frozen=True)
class GroebnerVerdict:
    """Verdict of the Groebner oracle.

    `witness` is a minimal initial-ideal generator divisible by x4, or
    None; the verdict is ACM exactly when there is none.
    """

    acm: bool
    witness: Optional[Monomial]


@dataclass(frozen=True)
class AcmReport:
    """Per-member verdict record.

    `applicable` is False for skipped members, with the reason in
    `skip_reason`.  When the fourth coordinate of the shifted vector is
    not the strict maximum but some permutation of it is analyzable, the
    verdicts are computed in permuted coordinates and labelled as such
    via `reordered` and `permuted_degrees`.
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


def acm_by_criterion(data: BresinskyData, m: int) -> CaseConditions:
    """Decide Cohen-Macaulayness of the projective closure at shift m by
    the inequality criterion: ACM exactly when `all_pass` holds.

    Refuses when the member degrees are not coprime or their fourth entry
    is not the strict maximum; the criterion is only stated under those
    hypotheses.
    """
    deg = member_degrees(data, m)
    reason = degree_refusal(deg)
    if reason is not None:
        raise RefusalError(reason, {"m": m, "degrees": deg})
    return case_conditions(data, m)


def acm_by_groebner(
    degrees: Iterable[int],
    gens: Iterable[ExponentPair],
    step_bound: int = DEFAULT_STEP_BOUND,
) -> GroebnerVerdict:
    """Decide Cohen-Macaulayness by the initial-ideal test.

    Computes a Groebner basis of the ideal generated by `gens` under the
    fixed order x2 > x1 > x3 > x4 (any reverse lexicographic order with
    x4 least gives the same verdict; this one is pinned for deterministic
    reports) and returns ACM iff no minimal generator of the initial
    ideal is divisible by x4.

    Each generator is an (lhs, rhs) pair of x1..x4 exponent tuples in
    either orientation, as `generators` returns them or `analyze_member`
    passes them (`bresinsky._generator_exponents`); the kernel packs and
    orients them itself.  The generators must be homogeneous for the
    grading deg(x_i) = a_i by `degrees`, as those of I(a) are; ValueError
    otherwise, after the refusal checks.  The kernel then pops generators and pairs by
    ascending a-degree, and every lead is a minimal generator of the
    initial ideal from the moment it joins (see `groebner._buchberger`).
    So the run stops at the first lead that x4 divides, and that lead is
    the witness; a run that ends without one is ACM.

    The generators must also generate the toric ideal I(a) itself, as
    `generators(data, m)` do for a = `member_degrees(data, m)`: that is
    the premise of the verdict.  The graded run relies on it, since it
    skips every pair whose two trails share a variable, which needs a
    prime ideal with no monomial (see `groebner._buchberger`).  For other
    homogeneous generators the run still ends, but its leads need not
    generate the initial ideal of their ideal.
    """
    x4 = _x4_leads(_checked_degrees(degrees), gens, step_bound, first=True)
    return GroebnerVerdict(not x4, x4[0] if x4 else None)


def x4_initial_generators(
    degrees: Iterable[int], gens: Iterable[ExponentPair], step_bound: int = DEFAULT_STEP_BOUND
) -> tuple[Monomial, ...]:
    """Every minimal generator of the initial ideal of `gens` under the
    order of `acm_by_groebner` that x4 divides, in canonical order.  The
    verdict keeps one witness; this runs the same graded Buchberger to the
    end for the whole list, which `analyze`'s table and the disagreement
    dump print.  It takes the generators that `acm_by_groebner` takes,
    homogeneous for `degrees` and generating I(degrees), and refuses and
    rejects what it does."""
    return _x4_leads(_checked_degrees(degrees), gens, step_bound)


def _checked_degrees(degrees: Iterable[int]) -> Vec4:
    """The degree vector, refused (RefusalError) outside the hypotheses of
    both routes and rejected when malformed (ValueError, TypeError)."""
    vec = _validated_vector(degrees)
    reason = degree_refusal(vec)
    if reason is not None:
        raise RefusalError(reason, {"degrees": vec})
    return vec


def _x4_leads(
    vec: Vec4, gens: Iterable[ExponentPair], step_bound: int, first: bool = False
) -> tuple[Monomial, ...]:
    """`x4_initial_generators` for a checked degree vector, the one reader
    of the graded run.  The kernel, weighed by `vec` under `AFFINE_ORDER`,
    raises ValueError unless every generator is homogeneous for it.  With
    `first` it stops at the first lead that x4 divides, so the result is
    that witness alone, or () when the run ends without one."""
    pk, leads, _ = _buchberger(gens, AFFINE_ORDER, step_bound, vec, _X4 if first else None)
    x4 = pk.variable_field(_X4)
    # every lead of a graded run is minimal; only the x4 leads are unpacked
    x4_leads = sorted((p for p in leads if p & x4), key=lambda p: _key(p, pk))
    return tuple(Monomial(pk.unpack(p)) for p in x4_leads)


def _padded(lead: Sequence[int], trail: Sequence[int]) -> ExponentPair:
    """The x1..x4 exponent pair over x0..x4, its lower-degree side padded
    with the power of x0 that equals the degrees."""
    if len(lead) != 4:
        raise AmbientMismatchError(f"homogenization expects a 4-variable binomial, got {len(lead)}")
    dl, dt = sum(lead), sum(trail)
    return (max(0, dt - dl), *lead), (max(0, dl - dt), *trail)


def _check_homogeneous(pairs: Iterable[ExponentPair], degrees: Iterable[int]) -> None:
    """ValueError unless every (lead, trail) pair over x0..x4 is
    degree-homogeneous and lies in the homogenized toric ideal of
    `degrees`: its sides have equal total degree and equal weight under
    (a1..a4) on x1..x4 with weight 0 on x0.  Equality of the
    complementary weights then follows, since that weight is
    a4 * totaldegree minus this one."""
    weights = (0, *map(operator.index, degrees))
    if len(weights) != 5:
        raise ValueError(f"degree vector must have 4 entries, got {len(weights) - 1}")
    for lead, trail in pairs:
        if len(lead) != 5:
            raise AmbientMismatchError(f"expected a 5-variable binomial, got {len(lead)}")
        if sum(lead) != sum(trail):
            problem = "inhomogeneous element"
        elif sum(map(operator.mul, lead, weights)) != sum(map(operator.mul, trail, weights)):
            problem = f"element fails homogeneous membership for {degrees}"
        else:
            continue
        raise ValueError(f"{problem}: {_binomials(((lead, trail),))[0]}")


def _homogenized(
    pairs: Iterable[ExponentPair], degrees: Iterable[int]
) -> tuple[ExponentPair, ...]:
    """Element-wise homogenization of a Groebner basis of the toric ideal
    of `degrees`, given as x1..x4 (lead, trail) pairs oriented and in
    canonical order under `AFFINE_ORDER` (as `_closed_form` and
    `reduce_basis` return them): each pair padded with x0 (`_padded`) and
    checked by `_check_homogeneous`, the one place a basis is homogenized.

    Padding keeps the orientation and the element order, so nothing is
    sorted again.  Both orders are degree-compatible, so no lead is of
    lower degree than its trail, and leads gain no x0.  Padded monomials
    of one degree compare as their x1..x4 parts do under `AFFINE_ORDER`:
    x0 is least and scanned first, so less x0, a higher affine degree, is
    larger.  The result is a Groebner basis under `PROJECTIVE_ORDER`, in
    its canonical order, and reduced exactly when the input is."""
    elements = tuple(_padded(lead, trail) for lead, trail in pairs)
    _check_homogeneous(elements, degrees)
    return elements


def homogeneous_basis(data: BresinskyData, m: int) -> BinomialBasis:
    """Element-wise homogenization of the closed-form basis at shift m,
    under `PROJECTIVE_ORDER`.

    Only defined when the projective closure is Cohen-Macaulay (which is
    exactly when the closed form exists); refuses otherwise.  The output
    is a Groebner basis of the homogenized ideal under the extended order
    with x0 least, and reduced exactly when the closed form is.
    """
    failing = acm_by_criterion(data, m).first_failing()
    if failing is not None:
        raise RefusalError(
            "not arithmetically Cohen-Macaulay",
            {"m": m, "condition": failing.name, "value": failing.value},
        )
    _, elements, reduced = _closed_form(data, m)
    elements = _homogenized(elements, member_degrees(data, m))
    return BinomialBasis(elements, PROJECTIVE_ORDER, is_groebner_verified=True, is_reduced=reduced)


def _skip(m: int, degrees: Vec4, reason: str) -> AcmReport:
    return AcmReport(m=m, degrees=degrees, applicable=False, skip_reason=reason)


def _agreement_checked(
    report: AcmReport, degrees: Vec4, gens: tuple[ExponentPair, ...], step_bound: int
) -> AcmReport:
    """`report` when its two verdicts agree; otherwise DisagreementError
    with a dump that carries every x4-bearing minimal initial generator
    of `gens`, the generators both verdicts were computed from (`degrees`
    grades them), and their Buchberger basis.

    Only a bug reaches the dump, so it lists the x4 leads itself: a rerun
    of the verdict's deterministic graded run, to the end, under the same
    step bound.  A verdict that stopped early may fit the step bound or
    the packed degree limit while the dump's runs exceed it; the dump then
    records which one (`not_rebuilt`) instead of the basis, and the
    disagreement is raised all the same, so neither a budget nor a cap
    turns it into a skip row or a refusal.
    """
    if report.agree:
        return report
    try:
        x4 = [str(mono) for mono in _x4_leads(degrees, gens, step_bound)]
        basis = buchberger(gens, AFFINE_ORDER, step_bound)
        pairs = _canonical_pairs(basis.elements, basis.order)
        rebuilt = {"x4_leads": x4, "groebner_basis": basis_json(basis.order, pairs)}
    except StepBoundExceeded:
        rebuilt = {"x4_leads": None, "groebner_basis": None, "not_rebuilt": SKIP_STEP_BOUND}
    except DegreeLimitExceeded:
        rebuilt = {"x4_leads": None, "groebner_basis": None, "not_rebuilt": _NOT_REBUILT_DEGREE}
    dump = to_canonical_json({"report": report_json(report), **rebuilt})
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
    return _analyze(data, m, step_bound, full=False)[0]


def _analyze(
    data: BresinskyData, m: int, step_bound: int, full: bool
) -> tuple[AcmReport, tuple[Monomial, ...]]:
    """`analyze_member`, with the x4-bearing minimal initial generators
    that its Groebner verdict is read off (`_x4_leads`, none for a skip
    row): every one when `full`, from one run of Buchberger to the end,
    and otherwise the witness alone, from a run that stops at it.
    """
    deg = member_degrees(data, m)
    reason = degree_refusal(deg)
    if reason is None:
        target, tm, tdeg = data, m, deg
    elif reason == SKIP_GCD or deg.count(max(deg)) > 1:
        return _skip(m, deg, reason), ()
    else:
        hit = next(_any_order_hits(deg), None)
        if hit is None:
            return _skip(m, deg, SKIP_FORM), ()
        perm, target = hit
        tm, tdeg = 0, tuple(deg[i] for i in perm)

    reordered = reason is not None
    # tdeg is checked (no refusal), so `case_conditions` and the reader of
    # the graded run take it as it is
    crit = case_conditions(target, tm)
    # exponent pairs straight from the formulas, oriented by the kernel
    gens = _generator_exponents(target, tm)
    x4 = _x4_leads(tdeg, gens, step_bound, first=not full)
    acm = not x4
    report = AcmReport(
        m=m,
        degrees=deg,
        applicable=True,
        case=crit.case,
        w=crit.w,
        conditions=crit.conditions,
        verdict_criterion=crit.all_pass,
        verdict_groebner=acm,
        agree=crit.all_pass == acm,
        reordered=reordered,
        permuted_degrees=tdeg if reordered else None,
    )
    return _agreement_checked(report, tdeg, gens, step_bound), x4


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
    for m in sorted(set(operator.index(m) for m in m_range)):
        try:
            reports.append(analyze_member(data, m, step_bound=step_bound))
        except StepBoundExceeded:
            reports.append(_skip(m, member_degrees(data, m), SKIP_STEP_BOUND))
    return reports
