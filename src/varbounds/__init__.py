"""Matrix variance bounds for Integrated Pearson and Cumulative Ord families.

The library certifies two families of inequalities, in the Loewner ordering,
for the covariance matrix D of a vector of test functions of one random
variable: alternating upper/lower bounds built from weighted derivative Gram
matrices, and a lower bound built from rank-one matrices of weighted mean
derivatives.  Eigenvalue checks, quadratic inference from the families'
defining identities, and a seeded Monte Carlo cross-check round out the
toolkit.
"""

from .bounds import (BoundReport, ClassReport, TermWeight, bessel_coefficient,
                     bound_report, bound_reports, check_class,
                     dispersion_matrix, matrix_A, matrix_B, matrix_H, matrix_L,
                     matrix_S, moment_finiteness, poincare_coefficient)
from .calculus import (FunctionTuple, SmoothFunction, forward_difference,
                       load_function_tuple, parse_function, polynomial,
                       rising_q)
from .distributions import (ContinuousIP, DiscreteCO, InferredQuadratic,
                            MembershipReport, Quadratic, catalog,
                            infer_quadratic, load_distribution, spec_to_json,
                            verify_membership)
from .errors import (ClassMembershipError, InvalidParameterError,
                     NoSamplerError, NonFiniteIntegrandError,
                     RankDeficientFitError, SingularCoefficientError,
                     TruncationError, UnknownDistributionError, VarboundsError)
from .expectation import EngineConfig, sample, splitmix64_uniforms
from .linalg import (PsdVerdict, SymMatrix, eigenvalues, is_psd, loewner_leq,
                     spectral_radius)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ClassReport", "TermWeight", "bessel_coefficient",
    "bound_report", "bound_reports", "check_class", "dispersion_matrix", "matrix_A", "matrix_B",
    "matrix_H", "matrix_L", "matrix_S", "moment_finiteness",
    "poincare_coefficient",
    "FunctionTuple", "SmoothFunction", "forward_difference",
    "load_function_tuple", "parse_function", "polynomial", "rising_q",
    "ContinuousIP", "DiscreteCO", "InferredQuadratic", "MembershipReport",
    "Quadratic", "catalog", "infer_quadratic", "load_distribution",
    "spec_to_json", "verify_membership",
    "ClassMembershipError", "InvalidParameterError",
    "NoSamplerError", "NonFiniteIntegrandError", "RankDeficientFitError",
    "SingularCoefficientError", "TruncationError", "UnknownDistributionError",
    "VarboundsError",
    "EngineConfig", "sample", "splitmix64_uniforms",
    "PsdVerdict", "SymMatrix", "eigenvalues", "is_psd", "loewner_leq",
    "spectral_radius",
]
