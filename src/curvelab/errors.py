"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: usage errors exit 1,
mathematical refusals exit 2, internal inconsistencies exit 3.
"""

from __future__ import annotations


class CurveLabError(Exception):
    """Base class for all curvelab errors."""


class AmbientMismatchError(CurveLabError):
    """Monomials, orders or weight vectors from different ambient rings."""


class StepBoundExceeded(CurveLabError):
    """A reduction loop ran past its configured step budget.

    Termination is guaranteed by the well-ordering of monomials; hitting
    this bound therefore signals an implementation bug or an absurdly
    small configured bound, never genuine nontermination.
    """


class DegreeLimitExceeded(CurveLabError, OverflowError):
    """A monomial degree past the packed kernel's limit
    (`groebner.MAX_DEGREE`): the input is too large for the kernel, so
    the CLI refuses it, and library callers may catch it as OverflowError."""


class NotGroebnerError(CurveLabError):
    """An operation requiring a Groebner basis received a set that fails
    the Buchberger criterion."""


class RefusalError(CurveLabError):
    """Structured mathematical refusal: the input is outside the regime
    the requested operation is defined for.

    `reason` is a stable machine-readable tag ("gcd>1",
    "max-coordinate fails", "not Bresinsky form", "conditions not met",
    "not arithmetically Cohen-Macaulay"); `details` carries the values
    that triggered it.
    """

    def __init__(self, reason: str, details: dict | None = None):
        self.reason = reason
        self.details = dict(details or {})
        msg = reason
        if self.details:
            extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
            msg = f"{reason} ({extras})"
        super().__init__(msg)


class AnomalyError(CurveLabError):
    """More than one parameter solution was recovered for a single
    coordinate order.  The parameter system is unique for a given curve,
    so this always indicates a bug worth surfacing, never a result."""


class DisagreementError(CurveLabError):
    """The two independent Cohen-Macaulay decision routes disagreed.

    Agreement is mathematically guaranteed, so a disagreement is always
    an implementation bug; the exception carries a full diagnostic dump.
    """

    def __init__(self, message: str, report=None, dump: str = ""):
        self.report = report
        self.dump = dump
        super().__init__(message if not dump else f"{message}\n{dump}")
