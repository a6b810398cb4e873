"""Exact spectral constants and machine verification for the shifted Coulomb Hamiltonian.

The package computes the negative spectrum, semiclassical phase-space
quantities, sharp excess constants and certified maximizer locations of the
operator -Delta - kappa/|x| + Lambda in dimension d >= 3, entirely in exact
rational arithmetic wherever the mathematics permits, and machine-checks the
corresponding family of inequalities and identities.
"""

from .exact import (
    CertificationError,
    EndpointRootError,
    MathematicalError,
    Polynomial,
    RationalFunctionPair,
    RootBracket,
    bisect_root,
    expand_linear_factors,
    isolate_unique_root,
    log_derivative,
    parse_rational,
    poly_gcd,
    ratfun_reduce,
    sturm_count,
)
from .highprec import PrecisionError, validated_eval
from .phase_space import clr_rhs, lt_rhs
from .spectrum import (
    LevelData,
    counting_function,
    levels,
    multiplicity,
    riesz_mean,
)
from .optima import StarResult, a_star, locate_t_star, q_star
from .verification import CheckRecord, run_suite

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CheckRecord",
    "EndpointRootError",
    "LevelData",
    "MathematicalError",
    "Polynomial",
    "PrecisionError",
    "RationalFunctionPair",
    "RootBracket",
    "StarResult",
    "a_star",
    "bisect_root",
    "clr_rhs",
    "counting_function",
    "expand_linear_factors",
    "isolate_unique_root",
    "levels",
    "locate_t_star",
    "log_derivative",
    "lt_rhs",
    "multiplicity",
    "parse_rational",
    "poly_gcd",
    "q_star",
    "ratfun_reduce",
    "riesz_mean",
    "run_suite",
    "sturm_count",
    "validated_eval",
    "__version__",
]
