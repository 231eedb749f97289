"""Symplectic spectra, Williamson factorization, and diagonal majorization.

Core objects: the symplectic eigenvalues delta(A) of a positive definite
matrix, the symplectic congruence reducing A to Williamson normal form,
mean-indexed symplectic diagonals with their weak-supermajorization
bound, the constructive converse realizing prescribed diagonals and
spectra, and the Ky Fan minimum principle over symplectic frames.

The package exports each module's ``__all__``, the version and the errors.
"""

from . import majorization, means, schur_horn, spectral, symplectic
from .errors import DomainError, NumericalError, SympectraError
from .majorization import *
from .means import *
from .schur_horn import *
from .spectral import *
from .symplectic import *

__version__ = "0.1.0"

__all__ = ["__version__", "SympectraError", "DomainError", "NumericalError"]
__all__ += symplectic.__all__
__all__ += means.__all__
__all__ += spectral.__all__
__all__ += majorization.__all__
__all__ += schur_horn.__all__
