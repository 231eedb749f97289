"""Symplectic spectra, Williamson factorization, and diagonal majorization.

Core objects: the symplectic eigenvalues delta(A) of a positive definite
matrix, the symplectic congruence reducing A to Williamson normal form,
mean-indexed symplectic diagonals with their weak-supermajorization
bound, the constructive converse realizing prescribed diagonals and
spectra, and the Ky Fan minimum principle over symplectic frames.
"""

from .errors import DomainError, NumericalError, SympectraError
from .majorization import (MAJORIZATION_TOL, MajorizationReport,
                           intermediate_vector, majorize, weak_supermajorize)
from .means import (MeanSpec, ValidationReport, arithmetic_mean, custom_mean,
                    evaluate_pairs, geometric_mean, harmonic_mean, max_mean,
                    min_mean, parse_mean, power_mean, validate_mean_axioms)
from .schur_horn import (KyFanResult, KyFanSearchReport, SchurCheckReport,
                         horn_symplectic_realize, kyfan_minimizer,
                         kyfan_objective, kyfan_search, schur_check)
from .spectral import (WilliamsonFactorization, symplectic_diag,
                       symplectic_eigenvalues, williamson)
from .symplectic import (DEFAULT_TOL, SymplecticCheck, complete_to_symplectic,
                         expanding_sum, is_symplectic, random_pd,
                         random_symplectic, s_pinching, standard_J)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SympectraError", "DomainError", "NumericalError",
    "MeanSpec", "arithmetic_mean", "geometric_mean", "harmonic_mean",
    "min_mean", "max_mean", "power_mean", "custom_mean", "parse_mean",
    "evaluate_pairs", "validate_mean_axioms", "ValidationReport",
    "DEFAULT_TOL", "standard_J", "is_symplectic", "expanding_sum",
    "s_pinching", "complete_to_symplectic",
    "random_symplectic", "random_pd", "SymplecticCheck",
    "WilliamsonFactorization", "symplectic_eigenvalues", "williamson",
    "symplectic_diag",
    "MAJORIZATION_TOL", "MajorizationReport", "weak_supermajorize",
    "majorize", "intermediate_vector",
    "SchurCheckReport", "KyFanResult", "KyFanSearchReport",
    "schur_check", "horn_symplectic_realize", "kyfan_minimizer",
    "kyfan_objective", "kyfan_search",
]
