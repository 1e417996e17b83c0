"""qsw: exact q-series workbench.

Truncated multivariate power series over Q (Laurent in q), q-calculus
special functions and operators, Stieltjes-Wigert polynomial families, and
a registry-driven identity verification harness with a CLI.
"""

from .series import (
    DEFAULT_TABLE, DivisionByNonUnit, Monomial, Series, TruncationSpec,
    VarTable, VarTableMismatch, VariableNotFound, caps, constant,
    equals_mod_caps, make_series, mono, monomial_series, one, q_power,
    variable, zero,
)
from .qfunctions import (
    INFINITY, NegativeQOrderInInfiniteProduct, NonTerminatingSeries, eq_big,
    eq_small, garrett_a, garrett_b, phi, poch, qbinom_coeffs, qfact_inv, rq,
    rq_at_power,
)
from .operators import OperatorContext, dq, dq_pow, leibniz_rhs, rr_op
from .polynomials import rogers_szego, sw_classic, sw_star, sw_star_op
from .verify import (
    BindingViolation, Report, UnknownIdentity, VerifyConfig, registry,
    resolve_garrett_convention, verify, verify_all,
)

__version__ = "0.1.0"
