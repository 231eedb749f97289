"""Symplectic eigenvalues and Williamson normal form.

For positive definite A of order 2n there is a symplectic W and positive
diagonal D = diag(delta) with A = W (D oplus D) W^T.  The delta_j are the
symplectic eigenvalues: the moduli of the eigenvalues of J A, which come
in conjugate pairs +-i delta_j.  They are invariant under symplectic
congruence and additive (as multisets) over the expanding sum.

The numerical route is one Cholesky factorization A = R R^T and one
Hermitian eigensolve per call: K = R^T J R is exactly skew-symmetric and
similar to the non-normal J A, so the Hermitian matrix iK has the real
eigenvalues +-delta_j, and its eigenvectors for +delta give W.  The
definiteness floor needs no eigensolve of A on that route: Ky Fan's
minimum principle at k = 1 bounds lambda_min / lambda_max below by
delta_1^2 / ||A||_F^2, so a delta_1 well clear of the floor certifies it.
Only inputs whose delta_1 fails that test run the exact eigvalsh check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError
from .means import MeanSpec, evaluate_pairs
from .symplectic import (DEFAULT_TOL, _as_square_even, _pow2_scale,
                         _skew_eigh, _symplectic_basis, is_symplectic)

__all__ = [
    "WilliamsonFactorization",
    "validate_pd",
    "symplectic_eigenvalues",
    "williamson",
    "symplectic_diag",
]

# Relative asymmetry above which an input is rejected instead of symmetrized.
_ASYM_TOL = 1e-8
# Relative floor for the smallest eigenvalue in the definiteness check.
_PD_TOL = 1e-13
# delta_1 / ||A||_F above this certifies lambda_min / lambda_max > 100 _PD_TOL,
# the definiteness floor with a safety factor 100 for rounding.
_CERT_FLOOR = math.sqrt(100.0 * _PD_TOL)


def _symmetrized(A, what: str) -> tuple[np.ndarray, float, float]:
    """The shape, finiteness and symmetry checks of ``validate_pd``.

    Returns the symmetrized array, the power of two c = _pow2_scale(A)
    and ||A / c||_F.
    """
    A, _ = _as_square_even(A, what)
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{what} has non-finite entries")
    c = _pow2_scale(A)
    unit = A / c
    scale = float(np.linalg.norm(unit))
    asym = float(np.linalg.norm(unit - unit.T))
    if asym > _ASYM_TOL * scale:
        raise DomainError(
            f"{what} is not symmetric: ||A - A^T|| / ||A|| = {asym / scale:.3e}")
    return 0.5 * A + 0.5 * A.T, c, scale


def _check_definite(A: np.ndarray, what: str) -> None:
    """The exact definiteness floor lambda_min > 1e-13 lambda_max (one eigvalsh)."""
    evals = np.linalg.eigvalsh(A)
    if evals[0] <= _PD_TOL * max(evals[-1], 0.0) or evals[0] <= 0.0:
        raise DomainError(
            f"{what} is not positive definite "
            f"(eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}])")


def validate_pd(A, what: str = "matrix") -> tuple[np.ndarray, int]:
    """Check A is symmetric positive definite of even order; symmetrize.

    Inputs within relative asymmetry 1e-8 are symmetrized (measurement
    noise); anything worse is rejected as a wrong-domain input rather
    than silently averaged.  Definiteness is the relative floor
    lambda_min > 1e-13 lambda_max on the eigenvalues of A.

    Returns the symmetrized array and the half-order n.
    """
    A, _, _ = _symmetrized(A, what)
    _check_definite(A, what)
    return A, A.shape[0] // 2


def _factor(A, tol: float, vectors: bool, what: str = "matrix"):
    """Validate and factor A: (symmetrized A, delta ascending, R, V).

    A = R R^T, and K = R^T J R is skew and similar to J A, so iK is
    Hermitian with eigenvalues +-delta; V (only if ``vectors``) holds its
    unit eigenvectors for +delta.

    Input checks and verdicts are those of ``validate_pd``, but the
    definiteness floor is usually certified by delta_1 instead of an
    eigvalsh of A.  Ky Fan's minimum principle at k = 1 with the geometric
    mean, over the frame [u, -Ju] for the unit eigenvector u of lambda_min,
    gives delta_1 <= sqrt(lambda_min (Ju)^T A (Ju)) <= sqrt(lambda_min
    lambda_max), so lambda_min / lambda_max >= delta_1^2 / ||A||_F^2.
    delta_1 / c > sqrt(100 * 1e-13) ||A / c||_F therefore clears the floor
    with a factor 100 to spare for rounding.  Only when that test fails
    (delta_1 tiny, negative or NaN), or when Cholesky fails, does the
    exact floor check run, before any NumericalError, so every input is
    rejected by the same rule with the same message as ``validate_pd``.
    Raises NumericalError when the spectrum fails to pair up.
    """
    A, c, fro = _symmetrized(A, what)
    n = A.shape[0] // 2
    try:
        R = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        _check_definite(A, what)
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    ev, V = _skew_eigh(R, vectors)
    # delta_1 itself, not its square, so a NaN or negative value falls through.
    if not ev[n] / c > _CERT_FLOOR * fro:
        _check_definite(A, what)
    if not np.all(np.isfinite(ev)):
        raise NumericalError("eigenvalue pairing failure: non-finite spectrum")
    # K is normal, so ||K||_2 is its largest eigenvalue modulus.
    scale = max(1.0, float(ev[-1]))
    pair_floor = 1e3 * np.finfo(float).eps * scale
    if ev[n] <= pair_floor:
        raise NumericalError(
            f"eigenvalue pairing failure: smallest positive eigenvalue {ev[n]:.3e} "
            f"is below the floor {pair_floor:.3e} (matrix numerically singular?)")
    mirror = float(np.max(np.abs(ev[n:] + ev[n - 1::-1])))
    if mirror > tol * scale:
        raise NumericalError(
            f"eigenvalue pairing failure: +- halves differ by {mirror:.3e}, "
            f"exceeding {tol:.1e} * {scale:.3e}")
    return A, ev[n:], R, V


def _delta(A, tol: float, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """The validated, symmetrized A and its symplectic eigenvalues."""
    A, delta, _, _ = _factor(A, tol, vectors=False, what=what)
    return A, delta


def symplectic_eigenvalues(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending symplectic eigenvalues of a positive definite matrix.

    These are the moduli of the eigenvalues of J A, one per conjugate
    pair +-i delta_j; computed as the positive eigenvalues of the
    Hermitian iK for K = R^T J R and the Cholesky factor A = R R^T.
    """
    return _delta(A, tol)[1]


@dataclass(frozen=True)
class WilliamsonFactorization:
    """A = W (D oplus D) W^T with W symplectic and D = diag(delta).

    ``delta`` is ascending and positive; ``residual`` is the relative
    Frobenius reconstruction error and ``symplectic_residual`` the raw
    Frobenius norm of W^T J W - J.
    """

    W: np.ndarray
    delta: np.ndarray
    residual: float
    symplectic_residual: float

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    def reconstruct(self) -> np.ndarray:
        d = np.concatenate([self.delta, self.delta])
        return (self.W * d) @ self.W.T


def _williamson(A, tol: float) -> tuple[np.ndarray, WilliamsonFactorization]:
    """The validated, symmetrized A and its Williamson factorization."""
    A, delta, R, V = _factor(A, tol, vectors=True)
    W = _symplectic_basis(R, V, delta)
    fact = WilliamsonFactorization(W=W, delta=delta, residual=math.nan,
                                   symplectic_residual=math.nan)

    c = _pow2_scale(A)
    rec = float(np.linalg.norm((A - fact.reconstruct()) / c)
                / np.linalg.norm(A / c))
    if not rec <= tol:
        raise NumericalError(
            f"Williamson reconstruction residual {rec:.3e} exceeds {tol:.1e}")
    ok, symp_res = is_symplectic(W, tol)
    if not ok:
        raise NumericalError(
            f"Williamson factor failed symplecticity (residual {symp_res:.3e})")
    return A, replace(fact, residual=rec, symplectic_residual=symp_res)


def williamson(A, tol: float = DEFAULT_TOL) -> WilliamsonFactorization:
    """Williamson normal form of a positive definite matrix.

    With A = R R^T and v = u + i w the unit eigenvectors of iK for +delta,
    K = R^T J R, the matrix L = sqrt(2) [w u] is orthogonal with
    L^T K L = [[0, D], [-D, 0]].  The factor W = R L (D^{-1/2} oplus
    D^{-1/2}) then satisfies both A = W (D oplus D) W^T (since L L^T = I)
    and W^T J W = J (since the inner congruence collapses to J).  Both
    contracts are verified before returning.
    """
    return _williamson(A, tol)[1]


def _diag_m(A: np.ndarray, mean: MeanSpec) -> np.ndarray:
    """symplectic_diag for an already validated A."""
    n = A.shape[0] // 2
    d = np.diag(A)
    return evaluate_pairs(mean, d[:n], d[n:])


def symplectic_diag(A, mean: MeanSpec) -> np.ndarray:
    """Mean-indexed symplectic diagonal [M(a_jj, a_{n+j,n+j})]_{j=1..n}.

    Pairs the j-th and (n+j)-th main-diagonal entries through the mean,
    in the original coordinate order (no sorting).
    """
    A, _ = validate_pd(A)
    return _diag_m(A, mean)
