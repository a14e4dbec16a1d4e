"""Cohen-Macaulay analysis of shifted Gorenstein non-complete-intersection
monomial curves in 4-space.

Two independent decision routes (an integer-inequality criterion and a
Groebner-basis oracle) must agree on every member of a shifted family;
the package also constructs the defining binomials, closed-form Groebner
bases and their homogenizations entirely in exact integer arithmetic.
"""

from .acm import (
    AcmReport,
    GroebnerVerdict,
    acm_by_criterion,
    acm_by_groebner,
    analyze_member,
    cross_validate,
    homogeneous_basis,
)
from .bresinsky import (
    BresinskyData,
    CaseConditions,
    ClosedFormBasis,
    ConditionValue,
    a_from_d,
    case_conditions,
    closed_form_basis,
    compute_w,
    d_from_a,
    d_from_a_any_order,
    generators,
    member_degrees,
    shift_vector,
)
from .errors import (
    AmbientMismatchError,
    AnomalyError,
    CurveLabError,
    DegreeLimitExceeded,
    DisagreementError,
    NotGroebnerError,
    RefusalError,
    StepBoundExceeded,
)
from .groebner import (
    DEFAULT_STEP_BOUND,
    Binomial,
    BinomialBasis,
    GroebnerCertificate,
    buchberger,
    is_groebner,
    reduce_basis,
    s_binomial,
)
from .monomials import (
    AFFINE_ORDER,
    EQUAL,
    GREATER,
    LESS,
    PROJECTIVE_ORDER,
    Monomial,
    MonomialOrder,
)

__version__ = "0.1.0"
