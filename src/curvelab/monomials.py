"""Exponent-vector monomials and graded reverse lexicographic orders.

The ambient ring has either 4 variables (x1..x4) or 5 variables (x0..x4,
x0 being the homogenizing variable).  The ambient size travels with every
monomial, and mixing sizes raises AmbientMismatchError instead of
coercing: homogenization bugs are silent otherwise.  All values are
immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from .errors import AmbientMismatchError

LESS = -1
EQUAL = 0
GREATER = 1

_VAR_IDS: dict[int, tuple[int, ...]] = {4: (1, 2, 3, 4), 5: (0, 1, 2, 3, 4)}


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial as a tuple of non-negative exponents.

    A 4-tuple holds the exponents of x1..x4 in that order; a 5-tuple
    holds those of x0..x4.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.exponents)
        if n not in _VAR_IDS:
            raise ValueError(f"ambient ring must have 4 or 5 variables, got {n}")
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        parts = []
        for vid, e in zip(_VAR_IDS[self.nvars], self.exponents):
            if e == 1:
                parts.append(f"x{vid}")
            elif e > 1:
                parts.append(f"x{vid}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order with an explicit variable priority.

    `priority` lists the variable ids from greatest to least.  Total
    degree decides first; on a tie the exponent vectors are scanned from
    the least-priority variable upward, and the monomial with the larger
    exponent at the first difference is the smaller one.  This is a
    multiplicative total order; two monomials compare equal only when
    their exponent vectors coincide.

    `scan` holds the exponent indices in that tie-break order, from the
    least-priority variable up; it is derived from `priority`, and the
    packed monomials of `curvelab.groebner` lay out their fields by it.

    The order is written twice: on exponent tuples by `_exponent_key`
    and on packed monomials by `curvelab.groebner._key`; the tests check
    that the two sort alike.  `key` and `compare` are read off
    `_exponent_key`.  A basis is a tuple of exponent pairs, which
    `curvelab.groebner` checks, orients and sorts by `_exponent_key`, so
    `compare` runs only where `Binomial.from_pair` orients a binomial of
    `Monomial`s (in `s_binomial`), which no CLI path does.
    """

    priority: tuple[int, ...]
    scan: tuple[int, ...] = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "degrevlex"

    def __post_init__(self) -> None:
        n = len(self.priority)
        if n not in _VAR_IDS or set(self.priority) != set(_VAR_IDS[n]):
            raise ValueError(
                f"priority must be a permutation of the ids of a 4- or 5-variable ring: {self.priority}"
            )
        ids = _VAR_IDS[n]
        # exponent indices in least-priority-first scan order
        object.__setattr__(self, "scan", tuple(ids.index(v) for v in reversed(self.priority)))

    @property
    def nvars(self) -> int:
        return len(self.priority)

    def _check(self, m: Monomial) -> None:
        if m.nvars != self.nvars:
            raise AmbientMismatchError(
                f"{m.nvars}-variable monomial under a {self.nvars}-variable order"
            )

    def key(self, m: Monomial) -> tuple:
        """Sort key, ascending in the order."""
        self._check(m)
        return self._exponent_key(m.exponents)

    def _exponent_key(self, e: Sequence[int]) -> tuple:
        """`key` of an exponent tuple, which the caller has sized to the
        order's ring: the order on tuples, by which every basis is
        checked, oriented and sorted."""
        return (sum(e), tuple([-e[i] for i in self.scan]))

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """LESS, EQUAL or GREATER for m1 against m2."""
        k1, k2 = self.key(m1), self.key(m2)
        return GREATER if k1 > k2 else LESS if k1 < k2 else EQUAL


#: The working order on the 4-variable ring: x2 > x1 > x3 > x4.
AFFINE_ORDER = MonomialOrder((2, 1, 3, 4))

#: Its extension to the homogenized ring, with x0 as the least variable.
PROJECTIVE_ORDER = MonomialOrder((2, 1, 3, 4, 0))
