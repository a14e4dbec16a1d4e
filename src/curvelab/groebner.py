"""Buchberger engine specialized to pure-difference binomials.

Every S-polynomial of two pure-difference binomials, and every reduction
step applied to one, yields a pure-difference binomial or zero, so no
coefficient field is represented: the whole computation is bookkeeping on
ordered pairs of exponent vectors.  Zero is represented by None
throughout; a Binomial with equal sides cannot be constructed.

The engine uses the normal pair-selection strategy (smallest lcm of leads
first) together with Buchberger's coprime-lead and chain criteria, applied
as the Gebauer-Moeller update (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, §2.10; Gebauer-Moeller 1988), so a pair those criteria prove
redundant is never normal-formed.  Reduction is deterministic:
the reducer with the smallest basis index is used, and the currently
leading monomial is reduced before the trailing one.  Against a verified
Groebner basis the normal form is independent of these choices; against
an arbitrary set only the deterministic strategy result is contractual.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AmbientMismatchError, NotGroebnerError, NotReducedError, StepBoundExceeded
from .monomials import EQUAL, GREATER, LESS, Monomial, MonomialOrder

#: Default ceiling on reduction steps per normal-form computation.
DEFAULT_STEP_BOUND = 1_000_000


@dataclass(frozen=True, slots=True)
class Binomial:
    """Oriented pure-difference binomial lead - trail, with lead > trail
    under the ambient order in force when it was built."""

    lead: Monomial
    trail: Monomial

    def __post_init__(self) -> None:
        if self.lead.nvars != self.trail.nvars:
            raise AmbientMismatchError(
                f"binomial across rings: {self.lead.nvars} vs {self.trail.nvars} variables"
            )
        if self.lead.exponents == self.trail.exponents:
            raise ValueError("zero binomial; represent zero as None, not lead == trail")

    @classmethod
    def from_pair(cls, m1: Monomial, m2: Monomial, order: MonomialOrder) -> Optional["Binomial"]:
        """Oriented binomial m1 - m2 (up to sign), or None when m1 == m2."""
        c = order.compare(m1, m2)
        if c == EQUAL:
            return None
        return cls(m1, m2) if c == GREATER else cls(m2, m1)

    @property
    def nvars(self) -> int:
        return self.lead.nvars

    def oriented(self, order: MonomialOrder) -> "Binomial":
        """The same binomial re-oriented under a (possibly different) order."""
        out = Binomial.from_pair(self.lead, self.trail, order)
        assert out is not None
        return out

    def rewrite(self, m: Monomial) -> Monomial:
        """One reduction step: m / lead * trail.  Caller guarantees lead | m."""
        le = self.lead.exponents
        te = self.trail.exponents
        return Monomial(tuple(e - a + b for e, a, b in zip(m.exponents, le, te)))

    def __str__(self) -> str:
        return f"{self.lead} - {self.trail}"

    def to_json(self) -> dict:
        return {"lead": self.lead.to_json(), "trail": self.trail.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Binomial":
        return cls(Monomial.from_json(obj["lead"]), Monomial.from_json(obj["trail"]))


def canonical(elements: Iterable[Binomial], order: MonomialOrder) -> tuple[Binomial, ...]:
    """The canonical element order: ascending by lead, then by trail,
    under `order`.  Every basis that is printed, serialized or flagged
    reduced is in this order."""
    key = order.key
    return tuple(sorted(elements, key=lambda b: (key(b.lead), key(b.trail))))


@dataclass(frozen=True)
class BinomialBasis:
    """A finite set of oriented binomials under a fixed order.

    `is_groebner_verified` means the set is known to pass the Buchberger
    criterion (either the verifier ran, or the set came out of an
    algorithm that guarantees it).  `is_reduced` additionally means no
    monomial of any element is divisible by the lead of another element
    and the elements are sorted canonically by lead.
    """

    elements: tuple[Binomial, ...]
    order: MonomialOrder
    is_groebner_verified: bool = False
    is_reduced: bool = False

    def __post_init__(self) -> None:
        for b in self.elements:
            if b.nvars != self.order.nvars:
                raise AmbientMismatchError(
                    f"{b.nvars}-variable binomial in a {self.order.nvars}-variable basis"
                )
            if self.order.compare(b.lead, b.trail) != GREATER:
                raise ValueError(f"element not oriented under the basis order: {b}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leads(self) -> tuple[Monomial, ...]:
        return tuple(b.lead for b in self.elements)

    def sorted_elements(self) -> tuple[Binomial, ...]:
        return canonical(self.elements, self.order)

    def to_json(self) -> dict:
        return {
            "order": self.order.to_json(),
            "elements": [b.to_json() for b in self.sorted_elements()],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "BinomialBasis":
        order = MonomialOrder.from_json(obj["order"])
        return cls(tuple(Binomial.from_json(e) for e in obj["elements"]), order)


@dataclass(frozen=True)
class GroebnerCertificate:
    """Outcome of the Buchberger criterion check.

    `failures` holds (i, j, remainder) for every pair whose S-binomial did
    not reduce to zero, with indices into the checked basis.
    """

    ok: bool
    failures: tuple[tuple[int, int, Binomial], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def s_binomial(f: Binomial, g: Binomial, order: MonomialOrder) -> Optional[Binomial]:
    """S-binomial of f and g: (lcm/lead_f)*f - (lcm/lead_g)*g.

    For pure differences this collapses to the oriented difference of
    (lcm/lead_g)*trail_g and (lcm/lead_f)*trail_f; it is None exactly when
    those two monomials coincide.
    """
    lcm = f.lead.lcm(g.lead)
    le = lcm.exponents
    mf = Monomial(tuple(l - a + b for l, a, b in zip(le, f.lead.exponents, f.trail.exponents)))
    mg = Monomial(tuple(l - a + b for l, a, b in zip(le, g.lead.exponents, g.trail.exponents)))
    return Binomial.from_pair(mg, mf, order)


def _first_reducer(m: Monomial, elements: Sequence[Binomial]) -> Optional[Binomial]:
    me = m.exponents
    for g in elements:
        ge = g.lead.exponents
        for a, b in zip(ge, me):
            if a > b:
                break
        else:
            return g
    return None


def _normal_form(
    f: Binomial,
    elements: Sequence[Binomial],
    order: MonomialOrder,
    step_bound: int,
) -> Optional[Binomial]:
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


def normal_form(f: Binomial, basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> Optional[Binomial]:
    """Deterministic normal form of f against the basis; None means zero."""
    if f.nvars != basis.order.nvars:
        raise AmbientMismatchError("binomial and basis live in different rings")
    return _normal_form(f.oriented(basis.order), basis.elements, basis.order, step_bound)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def buchberger(
    gens: Iterable[Binomial],
    order: MonomialOrder,
    step_bound: int = DEFAULT_STEP_BOUND,
) -> BinomialBasis:
    """Groebner basis of the ideal generated by `gens` under `order`.

    Buchberger's algorithm with the normal selection strategy (the pending
    pair whose lead-lcm is smallest in the order is processed first) and
    Buchberger's two criteria applied as the Gebauer-Moeller update
    (Gebauer-Moeller 1988; Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, §2.10).  When an element t joins the basis:

    - a pending pair (i, j) is dropped when lead_t divides its lcm and
      both lcm(i, t) and lcm(j, t) differ from it (chain criterion);
    - of the new pairs (i, t), only those whose lcm no other new pair's
      lcm divides are kept, one per lcm, and none whose lcm some pair with
      coprime leads shares (chain and coprime criteria);
    - an element whose lead lead_t divides forms no further pairs.

    Every element stays in the basis and serves as a reducer.
    """
    basis: list[Binomial] = []
    leads: list[tuple[int, ...]] = []
    live: list[int] = []  # indices that still form new pairs
    heap: list[tuple[tuple, int, int]] = []
    pending: dict[tuple[int, int], tuple[int, ...]] = {}  # pair -> lcm of its leads

    def add(h: Binomial) -> None:
        t = len(basis)
        lt = h.lead.exponents
        for (i, j), lcm in list(pending.items()):
            if (
                _divides(lt, lcm)
                and tuple(map(max, leads[i], lt)) != lcm
                and tuple(map(max, leads[j], lt)) != lcm
            ):
                del pending[(i, j)]
        # one candidate pair per lcm (the last i), flagged when any pair
        # with that lcm has coprime leads
        candidates: dict[tuple[int, ...], tuple[int, bool]] = {}
        dt = sum(lt)
        for i in live:
            lcm = tuple(map(max, leads[i], lt))
            coprime = sum(lcm) == sum(leads[i]) + dt
            if lcm in candidates:
                coprime = coprime or candidates[lcm][1]
            candidates[lcm] = (i, coprime)
        minimal: list[tuple[int, ...]] = []
        for lcm in sorted(candidates, key=sum):
            if any(_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            i, coprime = candidates[lcm]
            if not coprime:  # coprime leads: S-binomial reduces to zero
                pending[(i, t)] = lcm
                heapq.heappush(heap, (order.key(Monomial(lcm)), i, t))
        live[:] = [i for i in live if not _divides(lt, leads[i])]
        live.append(t)
        basis.append(h)
        leads.append(lt)

    for g in gens:
        add(g.oriented(order))
    if not basis:
        raise ValueError("need at least one generator")

    while heap:
        _, i, j = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue  # dropped by a later element
        s = s_binomial(basis[i], basis[j], order)
        if s is None:
            continue
        h = _normal_form(s, basis, order, step_bound)
        if h is None:
            continue
        add(h)

    return BinomialBasis(tuple(basis), order, is_groebner_verified=True)


def reduce_basis(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> BinomialBasis:
    """The unique reduced Groebner basis of the ideal of `basis`.

    Elements with redundant leads are dropped, the survivors are
    tail-reduced against each other, and the result is sorted canonically
    by lead.  Raises NotGroebnerError when the input is not a Groebner
    basis (checked unless already flagged verified).
    """
    if not basis.is_groebner_verified:
        cert = is_groebner(basis, step_bound=step_bound)
        if not cert.ok:
            raise NotGroebnerError(
                f"input is not a Groebner basis; {len(cert.failures)} failing pair(s)"
            )

    order = basis.order
    kept: list[Binomial] = []
    for b in canonical(basis.elements, order):
        # ascending lead order: any divisor of b.lead is already in kept
        if any(k.lead.divides(b.lead) for k in kept):
            continue
        kept.append(b)

    out: list[Binomial] = []
    for idx, b in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        t = b.trail
        steps = 0
        while True:
            g = _first_reducer(t, others)
            if g is None:
                break
            t = g.rewrite(t)
            steps += 1
            if steps > step_bound:
                raise StepBoundExceeded(f"tail reduction exceeded {step_bound} steps")
        out.append(Binomial(b.lead, t))

    return BinomialBasis(canonical(out, order), order, is_groebner_verified=True, is_reduced=True)


def is_groebner(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> GroebnerCertificate:
    """Buchberger criterion as a verifier.

    Every pairwise S-binomial is normal-formed against the basis, with no
    pair shortcuts, so the certificate is a direct witness: it lists every
    failing pair together with its irreducible remainder.
    """
    elements = basis.elements
    order = basis.order
    failures: list[tuple[int, int, Binomial]] = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            s = s_binomial(elements[i], elements[j], order)
            if s is None:
                continue
            h = _normal_form(s, elements, order, step_bound)
            if h is not None:
                failures.append((i, j, h))
    return GroebnerCertificate(not failures, tuple(failures))


def is_interreduced(elements: Sequence[Binomial]) -> bool:
    """True when no lead divides the lead of another element or any
    trail: a Groebner basis with this property, sorted canonically, is
    the reduced one."""
    for k, f in enumerate(elements):
        lk = f.lead.exponents
        for idx, g in enumerate(elements):
            if (idx != k and _divides(lk, g.lead.exponents)) or _divides(lk, g.trail.exponents):
                return False
    return True


def initial_generators(basis: BinomialBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the initial ideal: the leads of a
    reduced Groebner basis, in canonical order."""
    if not basis.is_reduced:
        raise NotReducedError("initial generators require a reduced Groebner basis")
    return basis.leads()
