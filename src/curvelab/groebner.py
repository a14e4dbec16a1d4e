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

Graded selection.  The kernel `_buchberger` queues the generators with
the pairs, and each joins reduced when an earlier lead divides its lead.
It may also be given weights for the variables under which every
generator is homogeneous, as the degree vector a is for the toric ideal
I(a) with deg(x_i) = a_i.  Every S-binomial and every rewrite then stays
homogeneous of the same weight, so popping entries by ascending weight
(with the unweighted order as tie-break) makes every lead a minimal
generator of the initial ideal from the moment it joins
(Kreuzer-Robbiano 2005, Computational Commutative Algebra 2).  The
Gebauer-Moeller update stays sound under this order, because every pair
it drops is justified by pairs whose lcms divide its own and so weigh no
more (see `_buchberger`).  `acm.acm_by_groebner` uses this to stop at the
first lead that x4 divides; `buchberger` passes no weights, so every
entry weighs 0 and the generators join first, in input order.

Packed monomials.  The Buchberger kernel `_buchberger` returns its basis
as a packing and the packed leads and trails, and `buchberger`,
`normal_form`, `is_groebner`, `reduce_basis` and `initial_generators`
work on packed exponent vectors too (Monagan-Pearce 2007, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors";
Bachmann-Schoenemann 1998, "Monomial representations for Groebner bases
computations").  `Monomial` and `Binomial` objects are built only where
those functions take and return them.  `acm.acm_by_groebner` calls the
kernel itself, weighted by the degree vector, and unpacks only the one
lead that proves its verdict; it keeps no basis, and the disagreement
dump rebuilds one with `buchberger`.  Under an order
on n variables a monomial is one int P: each exponent sits in its own
field of W = FIELD_BITS = 64 bits, the fields follow
`MonomialOrder.scan` with the least-priority variable in the top field,
and the top bit of every field is a guard bit that stays clear.  With G
the mask of the guard bits:

- a divides b iff ((b | G) - a) & G == G: every field of b | G is at
  least 2**(W-1), so the subtraction borrows across no field, and a
  field's guard bit survives exactly when a's exponent there is at most
  b's;
- the rewrite m / lead * trail is m - lead + trail;
- lcm: the guard bits surviving (a | G) - b mark the fields where
  a >= b; spreading each into a full field mask M gives
  lcm = b ^ ((a ^ b) & M);
- two monomials are coprime iff their lcm equals a + b;
- the degree is P % (2**W - 1), since 2**W leaves remainder 1;
- (deg << W*n) - P is the degrevlex key.  The degree term decides first,
  because 0 <= P < 2**(W*n).  On equal degree the key falls as P grows,
  and P compares its fields from the top: the least-priority exponent
  first, then the next.  So of two monomials of equal degree the one
  with the larger exponent at the first difference in the scan from the
  least-priority variable has the smaller key, which is the
  reverse-lexicographic tie-break.  The key is an int that sorts exactly
  like `MonomialOrder.key`, and equal keys mean equal monomials.

A degree above MAX_DEGREE = 2**(W-1) - 1 would let a field reach its
guard bit.  It is checked where new monomials arise, on the packed
inputs and on each new lcm; under a graded order a rewrite never raises
the degree.  Past the bound the kernel raises OverflowError instead of
wrapping.

Each formula is written once, in `_first_reducer` (divisibility),
`_lcms`, `_degree` and `_key`.  The divisibility test is inlined three
more times where a call per test would cost too much: twice in the
update of `_buchberger` (the chain criterion on the pending pairs and
the minimal lcms of the new pairs) and once in `acm` (does x4 divide a
lead).
A basis keeps its packed form once built, so repeated `normal_form`
calls against it do not repack it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import AmbientMismatchError, NotGroebnerError, StepBoundExceeded
from .monomials import EQUAL, GREATER, Monomial, MonomialOrder

#: Default ceiling on reduction steps per normal-form computation.
DEFAULT_STEP_BOUND = 1_000_000

#: Width W of one exponent field of a packed monomial, guard bit included.
FIELD_BITS = 64
#: Largest total degree a packed monomial may have.
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1  # one field's bits; also the degree modulus 2**W - 1


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

    def sorted_elements(self) -> tuple[Binomial, ...]:
        return canonical(self.elements, self.order)

    @cached_property
    def _packed(self) -> tuple[Packing, tuple[int, ...], tuple[int, ...]]:
        """The packing of the order and the packed leads and trails, built
        on first use and kept with the basis (whose fields are frozen)."""
        pk = Packing(self.order)
        return (
            pk,
            tuple(pk.pack(b.lead) for b in self.elements),
            tuple(pk.pack(b.trail) for b in self.elements),
        )

    def to_json(self) -> dict:
        return {
            "order": self.order.to_json(),
            "elements": [b.to_json() for b in self.sorted_elements()],
        }


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


class Packing:
    """Packed monomials under one order (see the module docstring):
    `guards` is the mask G of the guard bits and `shift` is W*n, the
    offset of the degree in a key."""

    __slots__ = ("scan", "guards", "shift")

    def __init__(self, order: MonomialOrder) -> None:
        self.scan = order.scan
        self.guards = sum(1 << (k * FIELD_BITS + FIELD_BITS - 1) for k in range(order.nvars))
        self.shift = FIELD_BITS * order.nvars

    def pack(self, m: Monomial) -> int:
        """The packed form of m; raises OverflowError past MAX_DEGREE."""
        e = m.exponents
        if len(e) != len(self.scan):
            raise AmbientMismatchError(
                f"{len(e)}-variable monomial under a {len(self.scan)}-variable order"
            )
        _check_degree(sum(e))
        p = 0
        for i in self.scan:  # least-priority variable first, so it lands on top
            p = (p << FIELD_BITS) | e[i]
        return p

    def unpack(self, p: int) -> Monomial:
        e = [0] * len(self.scan)
        for i in reversed(self.scan):
            e[i] = p & _FIELD
            p >>= FIELD_BITS
        return Monomial(tuple(e))

    def binomial(self, lead: int, trail: int) -> Binomial:
        return Binomial(self.unpack(lead), self.unpack(trail))


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise OverflowError(f"monomial degree {d} exceeds the packed limit {MAX_DEGREE}")


def _degree(p: int) -> int:
    """Total degree of a packed monomial, or of the unchecked lcm of two
    (its degree is below 2**W - 1, so the remainder is exact); raises
    OverflowError past MAX_DEGREE."""
    d = p % _FIELD
    _check_degree(d)
    return d


def _key(p: int, shift: int) -> int:
    """An int that sorts like `MonomialOrder.key` of the unpacked monomial."""
    return ((p % _FIELD) << shift) - p


def _weight(p: int, fields: Sequence[int]) -> int:
    """The weight of packed p when the exponent in each field weighs the
    matching entry of `fields`, bottom field first (0 for no fields)."""
    w = 0
    for c in fields:
        w += (p & _FIELD) * c
        p >>= FIELD_BITS
    return w


def _lcms(monomials: Iterable[int], b: int, guards: int) -> list[int]:
    """The lcm of packed b with each packed monomial, unchecked: the guard
    bits surviving (a | G) - b mark the fields where a >= b, and each is
    spread into a full field mask."""
    top = FIELD_BITS - 1
    return [b ^ ((a ^ b) & ((ge := ((a | guards) - b) & guards) - (ge >> top))) for a in monomials]


def _first_reducer(m: int, leads: Sequence[int], guards: int) -> int:
    """Index of the first packed lead that divides packed m, or -1."""
    x = m | guards
    for k, lead in enumerate(leads):
        if (x - lead) & guards == guards:
            return k
    return -1


def _s_pair(
    lcm: int, lead_f: int, trail_f: int, lead_g: int, trail_g: int, shift: int
) -> Optional[tuple[int, int]]:
    """Packed S-binomial of f and g, as `s_binomial` forms it: the
    oriented difference of (lcm/lead_g)*trail_g and (lcm/lead_f)*trail_f,
    or None when the two coincide."""
    mf = lcm - lead_f + trail_f
    mg = lcm - lead_g + trail_g
    if mf == mg:
        return None
    if _key(mg, shift) > _key(mf, shift):
        return mg, mf
    return mf, mg


def _normal_form(
    lead: int,
    trail: int,
    leads: Sequence[int],
    trails: Sequence[int],
    pk: Packing,
    step_bound: int,
) -> Optional[tuple[int, int]]:
    """Packed normal form of lead - trail (lead > trail) against the
    elements with packed `leads` and `trails`, or None for zero."""
    guards, shift = pk.guards, pk.shift
    steps = 0
    key_t = _key(trail, shift)
    while (k := _first_reducer(lead, leads, guards)) >= 0:
        lead = lead - leads[k] + trails[k]
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        key_l = _key(lead, shift)
        if key_l == key_t:
            return None
        if key_l < key_t:
            lead, trail, key_t = trail, lead, key_l
    # the lead is now irreducible, and a rewrite strictly decreases the
    # trail, so no re-orientation is needed
    while (k := _first_reducer(trail, leads, guards)) >= 0:
        trail = trail - leads[k] + trails[k]
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        if trail == lead:
            return None
    return lead, trail


def normal_form(f: Binomial, basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> Optional[Binomial]:
    """Deterministic normal form of f against the basis; None means zero.

    The basis is packed on the first call and the packed form is kept
    with it, so further calls against the same basis pack only f.
    """
    if f.nvars != basis.order.nvars:
        raise AmbientMismatchError("binomial and basis live in different rings")
    f = f.oriented(basis.order)
    pk, leads, trails = basis._packed
    h = _normal_form(pk.pack(f.lead), pk.pack(f.trail), leads, trails, pk, step_bound)
    return None if h is None else pk.binomial(*h)


def buchberger(
    gens: Iterable[Binomial],
    order: MonomialOrder,
    step_bound: int = DEFAULT_STEP_BOUND,
) -> BinomialBasis:
    """Groebner basis of the ideal generated by `gens` under `order`.

    Buchberger's algorithm with the normal selection strategy (the pending
    pair whose lead-lcm is smallest in the order is processed first, with
    no weights; see `_buchberger`) and
    Buchberger's two criteria applied as the Gebauer-Moeller update
    (Gebauer-Moeller 1988; Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, §2.10).  When an element t joins the basis:

    - a pending pair (i, j) is dropped when lead_t divides its lcm and
      both lcm(i, t) and lcm(j, t) differ from it (chain criterion);
    - of the new pairs (i, t), only those whose lcm no other new pair's
      lcm divides are kept, one per lcm, and none whose lcm some pair with
      coprime leads shares (chain and coprime criteria);
    - an element whose lead lead_t divides forms no further pairs.

    A generator whose lead an earlier lead divides joins as its normal
    form, or not at all when that is zero; every element that joins stays
    in the basis and serves as a reducer.
    """
    pk, leads, trails = _buchberger(gens, order, step_bound)
    elements = tuple(pk.binomial(l, t) for l, t in zip(leads, trails))
    return BinomialBasis(elements, order, is_groebner_verified=True)


def _buchberger(
    gens: Iterable[Binomial],
    order: MonomialOrder,
    step_bound: int,
    degrees: Optional[Sequence[int]] = None,
    stop: Optional[Callable[[int], bool]] = None,
) -> tuple[Packing, list[int], list[int]]:
    """The packed kernel of `buchberger`: the packing of `order` and the
    packed leads and trails of the basis, in the order the elements
    joined it.

    Each generator waits on the pair heap, weighed by its lead, and joins
    when it pops: unchanged when no current lead divides its lead,
    otherwise as its normal form, or not at all when that is zero.

    Given the weights `degrees` of the variables, each at least 1, under
    which every generator is homogeneous, an entry weighs what its lead or
    lcm weighs and the lightest pops first, ties broken as without weights
    (smallest lcm, then the pair's indices).  Every S-binomial and rewrite
    of a homogeneous binomial is homogeneous of the same weight, so each
    element weighs what its entry weighs, its pairs weigh at least as
    much, and the popped weights never fall.  A lead that joins later thus
    weighs at least as much as every current lead, so it can neither
    strictly divide one (a strict divisor weighs less) nor equal one (no
    current lead divides it): every lead of a weighted run is a minimal
    generator of the initial ideal from the moment it joins
    (Kreuzer-Robbiano 2005, Computational Commutative Algebra 2).  The
    Gebauer-Moeller update stays sound under this selection: every pair
    it drops is justified by pairs whose lcms divide its own, which weigh
    no more and pop no later.  For a pending pair (i, j) dropped by the
    chain criterion these are (i, t) and (j, t), whose lcms strictly
    divide lcm(i, j), so they weigh strictly less and pop first.

    `stop`, when given, is asked about each packed lead as it joins; when
    it returns True the kernel returns at once, with that lead last.
    """
    pk = Packing(order)
    guards, shift = pk.guards, pk.shift
    # the weight of each field, bottom field first; without weights every
    # entry weighs 0 and only the tie-break orders them
    fields = () if degrees is None else tuple(degrees[k] for k in reversed(order.scan))
    # the packed lead and trail of each generator
    queued = [(pk.pack(g.lead), pk.pack(g.trail)) for g in (b.oriented(order) for b in gens)]
    if not queued:
        raise ValueError("need at least one generator")
    # (weight, key, i, j): pair (i, j) with the key of its lcm, or generator
    # i with key 0 and j = -1, which pops before the pairs of its weight;
    # a sorted list is a heap
    heap = sorted((_weight(lead, fields), 0, k, -1) for k, (lead, _) in enumerate(queued))
    leads: list[int] = []
    trails: list[int] = []
    live: list[int] = []  # indices that still form new pairs
    pending: dict[tuple[int, int], int] = {}  # pair -> lcm of its leads

    def add(lt: int, tt: int) -> None:
        # a divides b exactly when lcm(a, b) == b
        t = len(leads)
        lcms = _lcms(leads, lt, guards)  # lcm(lead_i, lt) for every i
        for (i, j), lcm in list(pending.items()):
            # lt divides lcm, inlined as in _first_reducer
            if ((lcm | guards) - lt) & guards == guards and lcms[i] != lcm and lcms[j] != lcm:
                del pending[(i, j)]
        # one candidate pair per lcm (the last i), flagged when any pair
        # with that lcm has coprime leads
        candidates: dict[int, tuple[int, bool]] = {}
        for i in live:
            lcm = lcms[i]
            coprime = lcm == leads[i] + lt
            if lcm in candidates:
                coprime = coprime or candidates[lcm][1]
            candidates[lcm] = (i, coprime)
        by_degree = sorted(candidates, key=_FIELD.__rmod__)  # lcm % (2**W - 1), the degree
        if by_degree:
            _degree(by_degree[-1])  # the largest new lcm degree fits, so all do
        minimal: list[int] = []
        for lcm in by_degree:
            # _first_reducer(lcm, minimal, guards) < 0, inlined: a call per
            # candidate costs about 8% of the long-basis Buchberger time
            x = lcm | guards
            for m in minimal:
                if (x - m) & guards == guards:
                    break
            else:
                minimal.append(lcm)
                i, coprime = candidates[lcm]
                if not coprime:  # coprime leads: S-binomial reduces to zero
                    pending[(i, t)] = lcm
                    heapq.heappush(heap, (_weight(lcm, fields), _key(lcm, shift), i, t))
        live[:] = [i for i in live if lcms[i] != leads[i]]
        live.append(t)
        leads.append(lt)
        trails.append(tt)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if j < 0:
            h = queued[i]
            if _first_reducer(h[0], leads, guards) >= 0:
                h = _normal_form(*h, leads, trails, pk, step_bound)
        else:
            lcm = pending.pop((i, j), None)
            if lcm is None:
                continue  # dropped by a later element
            s = _s_pair(lcm, leads[i], trails[i], leads[j], trails[j], shift)
            if s is None:
                continue
            h = _normal_form(s[0], s[1], leads, trails, pk, step_bound)
        if h is None:
            continue
        add(*h)
        if stop is not None and stop(h[0]):
            break

    return pk, leads, trails


def _minimal(basis: BinomialBasis, step_bound: int) -> tuple[Packing, list[int], list[int]]:
    """The packing and the packed leads and trails of the elements whose
    lead no other lead divides (one per lead), in canonical order.
    Raises NotGroebnerError unless `basis` is a Groebner basis."""
    if not basis.is_groebner_verified:
        cert = is_groebner(basis, step_bound=step_bound)
        if not cert.ok:
            raise NotGroebnerError(
                f"input is not a Groebner basis; {len(cert.failures)} failing pair(s)"
            )
    pk, packed_leads, packed_trails = basis._packed
    guards, shift = pk.guards, pk.shift
    leads: list[int] = []
    trails: list[int] = []
    # ascending leads, so any divisor of a lead is already kept
    by_key = sorted(
        zip(packed_leads, packed_trails), key=lambda p: (_key(p[0], shift), _key(p[1], shift))
    )
    for lead, trail in by_key:
        if _first_reducer(lead, leads, guards) < 0:
            leads.append(lead)
            trails.append(trail)
    return pk, leads, trails


def reduce_basis(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> BinomialBasis:
    """The unique reduced Groebner basis of the ideal of `basis`.

    Elements with redundant leads are dropped, the survivors are
    tail-reduced against each other, and the result is sorted canonically
    by lead.  Raises NotGroebnerError when the input is not a Groebner
    basis (checked unless already flagged verified).
    """
    pk, leads, trails = _minimal(basis, step_bound)
    # Tail reduction against the other kept elements.  An element's own
    # lead never divides its trail, which stays below it, so the first
    # reducer among all kept leads is the first among the others.  The
    # leads are distinct and ascending, so the output is canonical.
    out: list[Binomial] = []
    for lead, t in zip(leads, trails):
        steps = 0
        while (k := _first_reducer(t, leads, pk.guards)) >= 0:
            t = t - leads[k] + trails[k]
            steps += 1
            if steps > step_bound:
                raise StepBoundExceeded(f"tail reduction exceeded {step_bound} steps")
        out.append(pk.binomial(lead, t))

    return BinomialBasis(tuple(out), basis.order, is_groebner_verified=True, is_reduced=True)


def is_groebner(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> GroebnerCertificate:
    """Buchberger criterion as a verifier.

    Every pairwise S-binomial is normal-formed against the basis, with no
    pair shortcuts, so the certificate is a direct witness: it lists every
    failing pair together with its irreducible remainder.
    """
    pk, leads, trails = basis._packed
    failures: list[tuple[int, int, Binomial]] = []
    for i in range(len(leads)):
        for j, lcm in enumerate(_lcms(leads[i + 1:], leads[i], pk.guards), i + 1):
            _degree(lcm)
            s = _s_pair(lcm, leads[i], trails[i], leads[j], trails[j], pk.shift)
            if s is None:
                continue
            h = _normal_form(s[0], s[1], leads, trails, pk, step_bound)
            if h is not None:
                failures.append((i, j, pk.binomial(*h)))
    return GroebnerCertificate(not failures, tuple(failures))


def is_interreduced(elements: Sequence[Binomial]) -> bool:
    """True when no lead divides the lead of another element or any
    trail: a Groebner basis with this property, sorted canonically, is
    the reduced one."""
    for k, f in enumerate(elements):
        for idx, g in enumerate(elements):
            if (idx != k and f.lead.divides(g.lead)) or f.lead.divides(g.trail):
                return False
    return True


def initial_generators(basis: BinomialBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the initial ideal, in canonical
    order: the leads of any Groebner basis that no other lead divides,
    which are the leads of the reduced basis (Cox-Little-O'Shea, §2.7).
    Raises NotGroebnerError when the input is not a Groebner basis
    (checked unless already flagged verified)."""
    pk, leads, _ = _minimal(basis, DEFAULT_STEP_BOUND)
    return tuple(pk.unpack(p) for p in leads)
