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
the pairs.  Given weights under which every generator is homogeneous, as
the degree vector a is for the toric ideal I(a), it pops entries by
ascending weight, so every lead is a minimal generator of the initial
ideal as it joins (see `_buchberger`), and `acm.acm_by_groebner` stops at
the first lead that x4 divides.  Without weights the generators join first.

Trail criterion.  A weighted run also skips every pair whose two trails
share a variable: the pair criterion of lattice ideals (Hemmecke-Malkin
2009, J. Symbolic Comput. 44; Sturmfels 1996, Groebner Bases and Convex
Polytopes, ch. 4).  It needs generators of the toric ideal I of the
weights, as `bresinsky.generators` returns them.  I is prime and holds no
monomial, so such a pair's S-binomial is a monomial g != 1 times a
binomial h of I that weighs less than the pair; every lighter entry has
popped, so the elements reduce h to zero, and g*h has a representation
below the pair's lcm, which is all Buchberger's criterion asks.
Unweighted runs (`buchberger`) keep these pairs and compute a Groebner
basis of any ideal of pure-difference binomials.  `_buchberger` gives
the full proof.  A weighted run tests the supports first and the
minimal-lcm condition only for the few pairs that pass (`_toric_pairs`),
which keeps exactly the pairs an unweighted update would keep, less
those the criterion skips.  Unweighted runs keep the sorted pass of
`_pair_rows`: there every pair whose leads share a variable passes, and
testing each against every live lead made the unweighted runs of
long-basis members 2.2x slower.

Packed monomials.  A basis has one form: a tuple of (lead, trail)
exponent-tuple pairs, each led by its larger side.  `buchberger`,
`reduce_basis` and `is_groebner` take and return such pairs, and pack
them into ints for the arithmetic (Monagan-Pearce 2007, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors";
Bachmann-Schoenemann 1998, "Monomial representations for Groebner bases
computations").  The kernel `_buchberger` takes its generators as pairs
in either orientation, packs and orients them itself, and returns its
basis as a packing and the packed leads and trails; `acm.acm_by_groebner`
calls it on the parameter formulas' pairs and unpacks only its witness.
A basis is checked, sorted and flagged reduced as pairs (`_side_keys`,
`_canonical_pairs`, `is_interreduced`).  A `Binomial` is built only where
a binomial is printed as text (`_binomials`) and by `s_binomial`.

Under an order on n variables a monomial is one int P: each exponent
sits in its own field of W bits, the fields follow `MonomialOrder.scan`
with the least-priority variable in the top field, and the top bit of
every field is a guard bit that stays clear.  `Packing` owns the format:
its width W, the masks and the degree limit are attributes of the
packing, and every primitive reads them from the packing it is given.
`Packing.pack` refuses a negative exponent, which would borrow from the
field above.  With G the mask of the guard bits:

- a divides b iff ((b | G) - a) & G == G: every field of b | G is at
  least 2**(W-1), so the subtraction borrows across no field, and a
  field's guard bit survives exactly when a's exponent there is at most
  b's;
- the rewrite m / lead * trail is m - lead + trail;
- lcm: the guard bits surviving (a | G) - b mark the fields where
  a >= b; spreading each into a full field mask M gives
  lcm = b ^ ((a ^ b) & M);
- two monomials are coprime iff their lcm equals a + b;
- the variable x_i divides P iff P shares a bit with the field of x_i
  (`Packing.variable_field`);
- the degree is P % (2**W - 1), since 2**W leaves remainder 1;
- (deg << W*n) - P is the degrevlex key.  The degree term decides first,
  because 0 <= P < 2**(W*n); on equal degree the key falls as P grows,
  and P compares its fields from the least-priority exponent up, which is
  the reverse-lexicographic tie-break.  So the key sorts exactly like
  `MonomialOrder.key`, and equal keys mean equal monomials.

A degree above 2**(W-1) - 1 would let a field reach its guard bit.  It
is checked on the packed inputs and on each new lcm; under a graded
order a rewrite never raises the degree.  Past the bound the packing
raises DegreeLimitExceeded, an OverflowError, instead of wrapping.

Field width per run.  `Packing(order)` has fields of FIELD_BITS = 64
bits, so MAX_DEGREE = 2**63 - 1; `is_groebner` and `reduce_basis` pack
with it.  Each packing is built once per order and width (`_packing`).
The kernel `_buchberger` first packs with fields of _NARROW_FIELD_BITS
= 15 bits (degree limit 16383), where a monomial in four variables is a
60-bit int of two 30-bit CPython digits, not nine; the largest degree a
kernel run meets on the benchmark workloads is 209.  Only when that run
raises DegreeLimitExceeded does the kernel rerun the same generators
with 64-bit fields, so MAX_DEGREE stays the only limit a caller can hit;
there is no option.  The rerun is exact:

- until its first overflow, a narrow run makes exactly the decisions a
  64-bit run makes: while no field reaches its guard bit, keys,
  divisibility tests, lcms, degrees and weights give the same answers;
- every new monomial is degree-checked (the inputs and each new lcm;
  a weighted run checks its new lcms one by one only when the largest
  lead degree plus the new lead's could pass the limit, since the degree
  of an lcm is at most the sum of the two), and under a graded order
  the sides of an S-binomial and every rewrite
  have at most the degree of their lcm, so none overflows unchecked;
- the lcms of a stopping lead's pairs are never formed or checked, in
  either width: none of its pairs could pop before the run ends;
- so a narrow run that ends, stops at its witness or raises
  StepBoundExceeded does just what the 64-bit run would do, and only
  DegreeLimitExceeded from the narrow packing triggers the rerun, which
  keeps nothing of the narrow run.

Each formula has one home: `_first_reducer` (divisibility), `_lcms`,
`_degree` and `_key`.  The kernel inlines a copy only where a call was
measured to cost (in-process timing on the kernel inputs of the three
benchmark streams, CPython 3.11.7):

- `_pair_rows` forms each new lcm and its degree in its one pass over
  the live leads; calling `_lcms` and passing over its result again
  costs 11-13% of kernel time;
- the minimal lcms of the new pairs in `_run`: a `_first_reducer` call
  per row costs 11% on long-basis;
- `_toric_pairs` forms the lcm of each pair that passes its support test
  inline: an `_lcms` call costs about 7% on long-basis (it calls `_lcms`
  in its rare second test);
- the generator check in `_run`: a call, which needs a list of the
  leads, costs 5-8% on the short runs of small-members and recover-scan;
- the reducer scans of `_normal_form` (a call per scan costs 1-2%), and
  its keys and those of the pushed pairs (calls cost about 2%).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import AmbientMismatchError, DegreeLimitExceeded, NotGroebnerError, StepBoundExceeded
from .monomials import EQUAL, GREATER, Monomial, MonomialOrder

#: Default ceiling on reduction steps per normal-form computation.
DEFAULT_STEP_BOUND = 1_000_000

#: Width W of one exponent field of a packed monomial, guard bit included.
FIELD_BITS = 64
#: Largest total degree a packed monomial may have.
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
#: The field width the kernel `_buchberger` tries first (see the module docstring).
_NARROW_FIELD_BITS = 15


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

    def rewrite(self, m: Monomial) -> Monomial:
        """One reduction step: m / lead * trail.  Caller guarantees lead | m."""
        le = self.lead.exponents
        te = self.trail.exponents
        return Monomial(tuple(e - a + b for e, a, b in zip(m.exponents, le, te)))

    def __str__(self) -> str:
        return f"{self.lead} - {self.trail}"


#: A binomial as an (lhs, rhs) pair of exponent tuples, in either
#: orientation; an element of a basis is led by its larger side.
ExponentPair = tuple[Sequence[int], Sequence[int]]


def _side_keys(lhs: Sequence[int], rhs: Sequence[int], order: MonomialOrder) -> tuple:
    """`order`'s keys of the two sides of a binomial, after the checks
    every binomial passes: the ambient size of `order`, no negative
    exponent and no equal sides (the zero binomial)."""
    n = order.nvars
    if len(lhs) != n or len(rhs) != n:
        size = len(rhs) if len(lhs) == n else len(lhs)
        raise AmbientMismatchError(f"{size}-variable monomial under a {n}-variable order")
    if min(lhs) < 0 or min(rhs) < 0:
        raise ValueError(f"negative exponent in {tuple(lhs) if min(lhs) < 0 else tuple(rhs)}")
    kl, kr = order._exponent_key(lhs), order._exponent_key(rhs)
    if kl == kr:
        raise ValueError("zero binomial; represent zero as None, not lead == trail")
    return kl, kr


def _canonical_pairs(
    pairs: Iterable[ExponentPair], order: MonomialOrder
) -> tuple[ExponentPair, ...]:
    """The binomials of exponent pairs, each checked by `_side_keys` and
    led by its larger side under `order`, as (lead, trail) pairs in the
    canonical element order: ascending by lead, then by trail, under
    `order`.  Every basis that is printed, serialized or flagged reduced
    is in this order, and sorted here."""
    rows = []
    for lhs, rhs in pairs:
        kl, kr = _side_keys(lhs, rhs, order)
        rows.append((kl, kr, lhs, rhs) if kl > kr else (kr, kl, rhs, lhs))
    # equal keys mean equal monomials, so the keys alone decide the sort
    rows.sort()
    return tuple((lead, trail) for _, _, lead, trail in rows)


def _binomials(pairs: Iterable[ExponentPair]) -> tuple[Binomial, ...]:
    """The `Binomial`s of oriented (lead, trail) exponent pairs."""
    return tuple(Binomial(Monomial(tuple(lead)), Monomial(tuple(trail))) for lead, trail in pairs)


@dataclass(frozen=True)
class BinomialBasis:
    """A finite set of binomials under a fixed order, each a (lead, trail)
    pair of exponent tuples led by its larger side under `order`.

    `is_groebner_verified` means the set is known to pass the Buchberger
    criterion (either the verifier ran, or the set came out of an
    algorithm that guarantees it).  `is_reduced` additionally means no
    monomial of any element is divisible by the lead of another element
    and the elements are sorted canonically by lead.
    """

    elements: tuple[ExponentPair, ...]
    order: MonomialOrder
    is_groebner_verified: bool = False
    is_reduced: bool = False

    def __post_init__(self) -> None:
        for lead, trail in self.elements:
            kl, kr = _side_keys(lead, trail, self.order)
            if kl < kr:
                raise ValueError(
                    f"element not oriented under the basis order: {_binomials([(lead, trail)])[0]}"
                )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class GroebnerCertificate:
    """Outcome of the Buchberger criterion check.

    `failures` holds (i, j, remainder) for every pair whose S-binomial did
    not reduce to zero, with indices into the checked basis and the
    remainder as a (lead, trail) exponent pair.
    """

    ok: bool
    failures: tuple[tuple[int, int, ExponentPair], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def s_binomial(f: Binomial, g: Binomial, order: MonomialOrder) -> Optional[Binomial]:
    """S-binomial of f and g: (lcm/lead_f)*f - (lcm/lead_g)*g.

    For pure differences this collapses to the oriented difference of
    (lcm/lead_g)*trail_g and (lcm/lead_f)*trail_f; it is None exactly when
    those two monomials coincide.
    """
    le = tuple(map(max, f.lead.exponents, g.lead.exponents))  # the lcm of the leads
    mf = Monomial(tuple(l - a + b for l, a, b in zip(le, f.lead.exponents, f.trail.exponents)))
    mg = Monomial(tuple(l - a + b for l, a, b in zip(le, g.lead.exponents, g.trail.exponents)))
    return Binomial.from_pair(mg, mf, order)


class Packing:
    """Packed monomials under one order, in fields of `bits` = W bits (see
    the module docstring): the one owner of the packed format.  `field`
    is one field's bits, 2**W - 1, which is also the degree modulus;
    `guards` is the mask G of the guard bits; `shift` is W*n, the offset
    of the degree in a key; `max_degree` is 2**(W-1) - 1, the largest
    degree a packed monomial may have."""

    __slots__ = ("scan", "bits", "field", "guards", "shift", "max_degree")

    def __init__(self, order: MonomialOrder, bits: int = FIELD_BITS) -> None:
        self.scan = order.scan
        self.bits = bits
        self.field = (1 << bits) - 1
        # the top bit of each of the n fields: 2**(W-1) times 1 + 2**W + ...
        self.guards = ((1 << bits * order.nvars) - 1) // ((1 << bits) - 1) << (bits - 1)
        self.shift = bits * order.nvars
        self.max_degree = (1 << (bits - 1)) - 1

    def pack(self, e: Sequence[int]) -> int:
        """The packed form of the monomial with exponent tuple e; raises
        AmbientMismatchError on a tuple of another size, ValueError on a
        negative exponent (which would borrow from the next field) and
        OverflowError past `max_degree`."""
        if len(e) != len(self.scan):
            raise AmbientMismatchError(
                f"{len(e)}-variable monomial under a {len(self.scan)}-variable order"
            )
        if min(e) < 0:
            raise ValueError(f"negative exponent in {tuple(e)}")
        if (d := sum(e)) > self.max_degree:
            _check_degree(d, self)
        bits = self.bits
        p = 0
        for i in self.scan:  # least-priority variable first, so it lands on top
            p = (p << bits) | e[i]
        return p

    def unpack(self, p: int) -> tuple[int, ...]:
        """The exponent tuple of packed p."""
        field, bits = self.field, self.bits
        e = [0] * len(self.scan)
        for i in reversed(self.scan):
            e[i] = p & field
            p >>= bits
        return tuple(e)

    def variable_field(self, i: int) -> int:
        """The mask of the field that holds exponent i: the variable x_i
        divides a packed monomial exactly when the two share a bit."""
        return self.field << (self.bits * (len(self.scan) - 1 - self.scan.index(i)))


#: The packing of each (order priority, field width) met so far: a
#: packing never changes, and there are at most 24 + 120 orders.
_PACKINGS: dict[tuple[tuple[int, ...], int], Packing] = {}


def _packing(order: MonomialOrder, bits: int = FIELD_BITS) -> Packing:
    """The `Packing` of `order` with fields of `bits` bits, built once."""
    key = (order.priority, bits)
    if key not in _PACKINGS:
        _PACKINGS[key] = Packing(order, bits)
    return _PACKINGS[key]


def _check_degree(d: int, pk: Packing) -> None:
    if d > pk.max_degree:
        raise DegreeLimitExceeded(f"monomial degree {d} exceeds the packed limit {pk.max_degree}")


def _degree(p: int, pk: Packing) -> int:
    """Total degree of a monomial packed by `pk`, or of the unchecked lcm
    of two (its degree is below 2**W - 1, so the remainder is exact);
    raises OverflowError past the packing's `max_degree`."""
    d = p % pk.field
    _check_degree(d, pk)
    return d


def _key(p: int, pk: Packing) -> int:
    """An int that sorts like `MonomialOrder.key` of the unpacked monomial."""
    return ((p % pk.field) << pk.shift) - p


def _weight(p: int, fields: Sequence[int], pk: Packing) -> int:
    """The weight of packed p when the exponent in each field weighs the
    matching entry of `fields`, bottom field first (0 for no fields)."""
    field, bits = pk.field, pk.bits
    w = 0
    for c in fields:
        w += (p & field) * c
        p >>= bits
    return w


def _lcms(monomials: Iterable[int], b: int, pk: Packing) -> list[int]:
    """The lcm of packed b with each packed monomial, unchecked: the guard
    bits surviving (a | G) - b mark the fields where a >= b, and each is
    spread into a full field mask."""
    guards, top = pk.guards, pk.bits - 1
    return [b ^ ((a ^ b) & ((ge := ((a | guards) - b) & guards) - (ge >> top))) for a in monomials]


def _pair_rows(live: Iterable[tuple[int, int]], b: int, pk: Packing) -> list[tuple]:
    """The pairs of packed lead b with each (i, a) of `live` as rows
    (degree, lcm, plain, -i, a), sorted: lcm is lcm(a, b) as `_lcms` forms
    it and plain whether a and b share a variable.  The last row has the
    largest degree, which must fit the packing.  The rows of one lcm are
    adjacent, any of coprime leads first, then by descending i."""
    guards, top, field = pk.guards, pk.bits - 1, pk.field
    rows = sorted([
        ((lcm := b ^ ((a ^ b) & ((ge := ((a | guards) - b) & guards) - (ge >> top)))) % field,
         lcm, lcm != a + b, -i, a)
        for i, a in live
    ])
    if rows:
        _check_degree(rows[-1][0], pk)  # the largest new lcm degree fits, so all do
    return rows


def _toric_pairs(
    live: dict[int, int], supports: Sequence[tuple[int, int]], b: int, sb: tuple[int, int], pk: Packing
) -> list[tuple[int, int]]:
    """The new pairs (i, lcm(a, b)) that a weighted run queues as packed
    lead b joins, for (i, a) in `live`, ascending by i.  `supports[i]`
    and `sb` hold the supports of the lead and the trail of element i
    and of b, as the guard bits of their nonzero fields.  They are the
    pairs that `_pair_rows` and the minimal-lcm test keep (one per lcm
    that no other new lcm divides: the last i, none when any pair of that
    lcm has coprime leads) whose trails share no variable.  The support
    test comes first, since it rejects most pairs: a pair (i, b) with
    leads that share a variable and trails that do not stays unless,
    for another j, a_j divides lcm(a, b) and pair (j, b) comes first:
    lcm(a_j, b) is a proper divisor, or the same lcm with j > i or with
    coprime leads."""
    guards, top = pk.guards, pk.bits - 1
    lead_b, trail_b = sb
    out = []
    for i, a in live.items():
        lead_a, trail_a = supports[i]
        if not lead_a & lead_b or trail_a & trail_b:
            continue  # coprime leads, or trails that share a variable
        lcm = b ^ ((a ^ b) & ((ge := ((a | guards) - b) & guards) - (ge >> top)))
        x = lcm | guards
        for j, c in live.items():
            if j != i and (x - c) & guards == guards:  # lcm(c, b) divides lcm
                if j > i:
                    break
                (m,) = _lcms((c,), b, pk)
                if m != lcm or m == c + b:
                    break
        else:
            out.append((i, lcm))
    return out


def _first_reducer(m: int, leads: Sequence[int], guards: int) -> int:
    """Index of the first packed lead that divides packed m, or -1."""
    x = m | guards
    for k, lead in enumerate(leads):
        if (x - lead) & guards == guards:
            return k
    return -1


def _s_pair(
    lcm: int, lead_f: int, trail_f: int, lead_g: int, trail_g: int, pk: Packing
) -> Optional[tuple[int, int]]:
    """Packed S-binomial of f and g, as `s_binomial` forms it: the
    oriented difference of (lcm/lead_g)*trail_g and (lcm/lead_f)*trail_f,
    or None when the two coincide."""
    mf = lcm - lead_f + trail_f
    mg = lcm - lead_g + trail_g
    if mf == mg:
        return None
    if _key(mg, pk) > _key(mf, pk):
        return mg, mf
    return mf, mg


def _normal_form(
    lead: int,
    trail: int,
    elems: Sequence[tuple[int, int]],
    pk: Packing,
    step_bound: int,
) -> Optional[tuple[int, int]]:
    """Packed normal form of lead - trail (lead > trail) against the packed
    (lead, trail) elements `elems`, the first reducer first; None for zero."""
    guards, field, shift = pk.guards, pk.field, pk.shift
    steps = 0
    key_t = ((trail % field) << shift) - trail  # _key(trail, pk)
    while True:
        x = lead | guards
        for g, h in elems:
            if (x - g) & guards == guards:
                break
        else:
            break
        lead = lead - g + h
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        key_l = ((lead % field) << shift) - lead
        if key_l == key_t:
            return None
        if key_l < key_t:
            lead, trail, key_t = trail, lead, key_l
    # the lead is now irreducible, and a rewrite strictly decreases the
    # trail, so no re-orientation is needed
    while True:
        x = trail | guards
        for g, h in elems:
            if (x - g) & guards == guards:
                break
        else:
            return lead, trail
        trail = trail - g + h
        steps += 1
        if steps > step_bound:
            raise StepBoundExceeded(f"normal form exceeded {step_bound} reduction steps")
        if trail == lead:
            return None


def buchberger(
    gens: Iterable[ExponentPair], order: MonomialOrder, step_bound: int = DEFAULT_STEP_BOUND
) -> BinomialBasis:
    """Groebner basis of the ideal generated by `gens` (exponent-tuple
    pairs in either orientation, see `_buchberger`) under `order`.

    Buchberger's algorithm with the normal selection strategy (the pending
    pair whose lead-lcm is smallest in the order is processed first, with
    no weights; see `_buchberger`) and Buchberger's two criteria applied
    as the Gebauer-Moeller update (Gebauer-Moeller 1988; Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, §2.10).  When an element t joins:

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
    elements = tuple(zip(map(pk.unpack, leads), map(pk.unpack, trails)))
    return BinomialBasis(elements, order, is_groebner_verified=True)


def _buchberger(
    gens: Iterable[ExponentPair],
    order: MonomialOrder,
    step_bound: int,
    degrees: Optional[Sequence[int]] = None,
    stop: Optional[int] = None,
) -> tuple[Packing, list[int], list[int]]:
    """The packed kernel of `buchberger`: a packing of `order` and the
    packed leads and trails of the basis under it, in the order the
    elements joined it.  It runs with fields of _NARROW_FIELD_BITS bits
    first and reruns with FIELD_BITS only when a degree outgrows them, so
    MAX_DEGREE is the only limit a caller meets (see the module docstring).

    Each generator is an (lhs, rhs) pair of exponent tuples, in either
    orientation.  Both sides are packed (`Packing.pack` checks the ambient
    size, the signs and the degree) and oriented by packed key; equal
    sides are a ValueError.  Each generator waits on the pair heap,
    weighed by its lead, and joins when it pops: unchanged when no current
    lead divides its lead, otherwise as its normal form, or not at all
    when that is zero.

    Given the weights `degrees` of the variables, each at least 1, under
    which every generator is homogeneous (ValueError otherwise), an entry
    weighs what its lead or lcm weighs and the lightest pops first, ties
    broken as without weights (smallest lcm, then the pair's indices).
    Every S-binomial and rewrite of a homogeneous binomial is homogeneous
    of the same weight, so the popped weights never fall, and a lead that
    joins weighs at least as much as every current lead.  So it can
    neither strictly divide one (a strict divisor weighs less) nor equal
    one (no current lead divides it): every lead of a weighted run is a
    minimal generator of the initial ideal from the moment it joins
    (Kreuzer-Robbiano 2005, Computational Commutative Algebra 2).  The
    Gebauer-Moeller update stays sound: every pair it drops is justified
    by pairs whose lcms divide its own, which weigh no more and pop no
    later; for a pending pair (i, j) dropped by the chain criterion these
    are (i, t) and (j, t), whose lcms strictly divide lcm(i, j).

    A weighted run requires generators that generate the toric ideal I
    of `degrees`, the kernel of x_i -> s**degrees[i], as
    `bresinsky.generators(data, m)` do for `member_degrees(data, m)`; I
    is prime and holds no monomial.  It then queues a new pair (i, t)
    only when the trails of i and t share no variable, the lattice-ideal
    pair criterion (Hemmecke-Malkin 2009; Sturmfels 1996, ch. 4).  A
    skipped pair's lcm still counts in the update, so the new pairs whose
    lcm it divides are dropped as before.  This is sound:

    - when an entry of weight W pops, every lighter entry has popped, so
      the elements form a Groebner basis of I truncated below W: each
      homogeneous element of I that weighs less than W reduces to zero
      by them;
    - if a variable x_k divides both trails, the S-binomial
      S = (lcm/L_i)*T_i - (lcm/L_t)*T_t of leads L and trails T is g*h
      with g = x_k != 1.  As I is prime and holds no monomial, h is in
      I, and h weighs W minus the weight of g, less than W.  So h reduces
      to zero, h = sum of c_k m_k f_k over elements f_k with every
      m_k lead(f_k) <= lead(h), and g*h = sum of c_k (g m_k) f_k has
      every term at most lead(S) < lcm(L_i, L_t).  Such a representation
      is all Buchberger's criterion asks of a pair (Cox-Little-O'Shea,
      §2.10), so the Gebauer-Moeller drops justified by a skipped pair
      stay sound;
    - the test reads only trails, which never change once an element
      joins, so deciding as the pair is formed decides as it would pop;
    - it forms no lcm, and the update still refuses exactly when a new
      lcm passes the degree limit, so DegreeLimitExceeded and the exact
      rerun with 64-bit fields are as they are without it.

    Unweighted runs keep every such pair, with no assumption on the
    ideal.  A weighted run keeps the supports of each element's lead and
    trail as guard-bit masks and forms its new pairs with `_toric_pairs`,
    which tests the supports before the minimal-lcm condition: the run
    makes the same decisions as a minimal-lcm selection over all new
    pairs followed by the support test, with the condition checked only
    for the pairs that pass.

    `stop`, when given, is the index of a variable: the kernel returns as
    soon as a lead that this variable divides joins, with that lead last.
    That lead forms no pairs and drops none: none of them could pop.
    """
    pairs = list(gens)  # a second run reads them again
    try:
        return _run(pairs, _packing(order, _NARROW_FIELD_BITS), step_bound, degrees, stop)
    except DegreeLimitExceeded:
        pass  # a degree outgrew the narrow fields; nothing of that run is kept
    return _run(pairs, _packing(order), step_bound, degrees, stop)


def _run(
    pairs: Sequence[ExponentPair],
    pk: Packing,
    step_bound: int,
    degrees: Optional[Sequence[int]],
    stop: Optional[int],
) -> tuple[Packing, list[int], list[int]]:
    """One run of the kernel `_buchberger` under the packing `pk`."""
    guards, shift = pk.guards, pk.shift
    # the field of the stop variable: a lead it divides shares a bit with it
    stop_field = 0 if stop is None else pk.variable_field(stop)
    # the weight of each field, bottom field first; without weights every
    # entry weighs 0 (no `_weight` call) and only the tie-break orders them
    fields = () if degrees is None else tuple(degrees[k] for k in reversed(pk.scan))
    # the packed lead and trail of each generator, and its heap entry
    # (weight, key, i, j): pair (i, j) with the key of its lcm, or generator
    # i with key 0 and j = -1, which pops before the pairs of its weight
    queued: list[tuple[int, int]] = []
    heap: list[tuple[int, int, int, int]] = []
    for lhs, rhs in pairs:
        lead, trail = pk.pack(lhs), pk.pack(rhs)
        if lead == trail:
            raise ValueError(f"zero generator: both sides are {tuple(lhs)}")
        if _key(lead, pk) < _key(trail, pk):
            lead, trail = trail, lead
        w = 0
        if fields:
            w = _weight(lead, fields, pk)
            if _weight(trail, fields, pk) != w:
                raise ValueError(
                    f"generator {_binomials([(pk.unpack(lead), pk.unpack(trail))])[0]} "
                    f"is not homogeneous for the degrees {tuple(degrees)}"
                )
        heap.append((w, 0, len(queued), -1))
        queued.append((lead, trail))
    if not queued:
        raise ValueError("need at least one generator")
    heap.sort()  # a sorted list is a heap
    elems: list[tuple[int, int]] = []  # the packed (lead, trail) of each element
    # in weighted runs, the supports of each element's lead and trail as
    # the guard bits of their nonzero fields: a field is nonzero when its
    # guard bit survives subtracting the field's bottom bit
    supports: list[tuple[int, int]] = []
    ones = guards >> (pk.bits - 1)
    field, max_degree = pk.field, pk.max_degree
    high = 0  # in weighted runs, the largest degree of a live lead
    live: dict[int, int] = {}  # index -> lead of the elements that still form new pairs
    pending: dict[tuple[int, int], int] = {}  # pair -> lcm of its leads

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if j < 0:
            h = queued[i]
            x = h[0] | guards
            for g, _ in elems:
                if (x - g) & guards == guards:  # an earlier lead divides its lead
                    h = _normal_form(h[0], h[1], elems, pk, step_bound)
                    break
        else:
            lcm = pending.pop((i, j), None)
            if lcm is None:
                continue  # dropped by a later element
            (lead_i, trail_i), (lead_j, trail_j) = elems[i], elems[j]
            s = _s_pair(lcm, lead_i, trail_i, lead_j, trail_j, pk)
            if s is None:
                continue
            h = _normal_form(s[0], s[1], elems, pk, step_bound)
        if h is None:
            continue
        lt = h[0]
        if lt & stop_field:
            # the run ends here, so the stopping lead forms no pairs
            elems.append(h)
            break
        t = len(elems)
        # the Gebauer-Moeller update as h joins: a pending pair goes when lt
        # divides its lcm and both lcm(i, t) and lcm(j, t) differ from it
        for (i, j), lcm in list(pending.items()):
            if _first_reducer(lcm, (lt,), guards) == 0:
                if lcm not in _lcms((elems[i][0], elems[j][0]), lt, pk):
                    del pending[(i, j)]
        if fields:
            # no lead of a weighted run divides another (see `_buchberger`),
            # so every element stays live; deg lcm(a, lt) <= deg a + deg lt,
            # so the new lcms are checked one by one only when that can pass
            # the limit
            sb = (((lt | guards) - ones) & guards, ((h[1] | guards) - ones) & guards)
            dt = lt % field
            if high + dt > max_degree:
                _check_degree(max(lcm % field for lcm in _lcms(live.values(), lt, pk)), pk)
            if dt > high:
                high = dt
            new = _toric_pairs(live, supports, lt, sb, pk)
            supports.append(sb)
        else:
            # of the new pairs, one per lcm that no other new lcm divides:
            # any divisor comes first, and the first row of an lcm decides
            # for all; none with coprime leads, whose S-binomial reduces to
            # zero
            new = []
            minimal: list[int] = []
            for _, lcm, plain, minus_i, lead in _pair_rows(live.items(), lt, pk):
                if lcm == lead:
                    del live[-minus_i]  # lt divides this lead: it forms no further pairs
                x = lcm | guards
                for m in minimal:
                    if (x - m) & guards == guards:
                        break
                else:
                    minimal.append(lcm)
                    if plain:
                        new.append((-minus_i, lcm))
        for i, lcm in new:
            pending[(i, t)] = lcm
            w = _weight(lcm, fields, pk) if fields else 0
            # the key of lcm, as `_key` forms it
            heapq.heappush(heap, (w, ((lcm % field) << shift) - lcm, i, t))
        live[t] = lt
        elems.append(h)

    return pk, [lead for lead, _ in elems], [trail for _, trail in elems]


def _pack(basis: BinomialBasis) -> tuple[Packing, list[tuple[int, int]]]:
    """The packing of the basis order and the packed (lead, trail) elements."""
    pk = _packing(basis.order)
    return pk, [(pk.pack(lead), pk.pack(trail)) for lead, trail in basis]


def reduce_basis(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> BinomialBasis:
    """The unique reduced Groebner basis of the ideal of `basis`.

    Elements with redundant leads are dropped, the survivors are
    tail-reduced against each other, and the result is sorted canonically
    by lead; its leads are the minimal generators of the initial ideal
    (Cox-Little-O'Shea, §2.7).  Raises NotGroebnerError when the input is
    not a Groebner basis (checked unless already flagged verified).
    """
    if not basis.is_groebner_verified:
        cert = is_groebner(basis, step_bound=step_bound)
        if not cert.ok:
            raise NotGroebnerError(
                f"input is not a Groebner basis; {len(cert.failures)} failing pair(s)"
            )
    pk, elems = _pack(basis)
    guards = pk.guards
    # Keep the elements whose lead no other lead divides, one per lead:
    # by ascending leads, any divisor of a lead is already kept.
    leads: list[int] = []
    trails: list[int] = []
    for lead, trail in sorted(elems, key=lambda p: (_key(p[0], pk), _key(p[1], pk))):
        if _first_reducer(lead, leads, guards) < 0:
            leads.append(lead)
            trails.append(trail)
    # Tail reduction against the other kept elements.  An element's own
    # lead never divides its trail, which stays below it, so the first
    # reducer among all kept leads is the first among the others.  The
    # leads are distinct and ascending, so the output is canonical.
    out: list[ExponentPair] = []
    for lead, t in zip(leads, trails):
        steps = 0
        while (k := _first_reducer(t, leads, guards)) >= 0:
            t = t - leads[k] + trails[k]
            steps += 1
            if steps > step_bound:
                raise StepBoundExceeded(f"tail reduction exceeded {step_bound} steps")
        out.append((pk.unpack(lead), pk.unpack(t)))

    return BinomialBasis(tuple(out), basis.order, is_groebner_verified=True, is_reduced=True)


def is_groebner(basis: BinomialBasis, step_bound: int = DEFAULT_STEP_BOUND) -> GroebnerCertificate:
    """Buchberger criterion as a verifier.

    Every pairwise S-binomial is normal-formed against the basis, with no
    pair shortcuts, so the certificate is a direct witness: it lists every
    failing pair together with its irreducible remainder.
    """
    pk, elems = _pack(basis)
    leads = [lead for lead, _ in elems]
    failures: list[tuple[int, int, ExponentPair]] = []
    for i, (lead, trail) in enumerate(elems):
        for j, lcm in enumerate(_lcms(leads[i + 1:], lead, pk), i + 1):
            _degree(lcm, pk)
            s = _s_pair(lcm, lead, trail, *elems[j], pk)
            if s is None:
                continue
            h = _normal_form(*s, elems, pk, step_bound)
            if h is not None:
                failures.append((i, j, (pk.unpack(h[0]), pk.unpack(h[1]))))
    return GroebnerCertificate(not failures, tuple(failures))


def is_interreduced(pairs: Sequence[ExponentPair]) -> bool:
    """True when no lead divides the lead of another element or any
    trail, for oriented (lead, trail) exponent pairs: a Groebner basis
    with this property, sorted canonically, is the reduced one.  Pairs
    from rings of different sizes raise AmbientMismatchError.

    The test runs on plain exponent tuples, not packed ints, so it holds
    for any exponent size."""
    sizes = {len(lead) for lead, _ in pairs}
    if len(sizes) > 1:
        raise AmbientMismatchError(f"ambient rings differ: {min(sizes)} vs {max(sizes)} variables")
    le = operator.le
    for k, (lead, _) in enumerate(pairs):
        # lead divides e exactly when each exponent of lead is <= e's
        for idx, (other, trail) in enumerate(pairs):
            if (idx != k and all(map(le, lead, other))) or all(map(le, lead, trail)):
                return False
    return True
