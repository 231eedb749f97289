"""Symplectic eigenvalues and Williamson normal form.

For positive definite A of order 2n there is a symplectic W and positive
diagonal D = diag(delta) with A = W (D oplus D) W^T.  The delta_j are the
symplectic eigenvalues: the moduli of the eigenvalues of J A, which come
in conjugate pairs +-i delta_j.  They are invariant under symplectic
congruence and additive (as multisets) over the expanding sum.

Every call works on the unit form U = A / c, c the largest power of two
<= max |a_ij|; delta(A) = c delta(U) and W is U's.  The numerical route
is one Cholesky factorization U = R R^T and one Hermitian eigensolve per
call: K = R^T J R is exactly skew-symmetric and similar to the
non-normal J U, so the Hermitian matrix iK has the real eigenvalues
+-delta_j, and its eigenvectors for +delta give W.  The definiteness
floor needs no eigensolve of U on that route: Ky Fan's minimum principle
at k = 1 bounds lambda_min / lambda_max below by delta_1^2 / ||U||_F^2,
so a delta_1 well clear of the floor certifies it.  Only inputs whose
delta_1 fails that test run the exact eigvalsh check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, _check_tol
from .means import MeanSpec, evaluate_pairs
from .symplectic import (DEFAULT_TOL, _as_square_even, _form_check,
                         _in_units, _pow2_scale, _skew_eigh,
                         _symplectic_basis)

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

    Returns the unit form U = sym(A) / c for the largest power of two
    c <= max |a_ij| (1 for A = 0), c and ||A / c||_F.  Dividing by c is
    exact, so U is the same for every power-of-two multiple of A, and
    nothing computed from it overflows.
    """
    A, _ = _as_square_even(A, what)
    c = _pow2_scale(A)
    unit = A / c
    scale = float(np.linalg.norm(unit))
    asym = float(np.linalg.norm(unit - unit.T))
    if asym > _ASYM_TOL * scale:
        raise DomainError(
            f"{what} is not symmetric: ||A - A^T|| / ||A|| = {asym / scale:.3e}")
    return 0.5 * unit + 0.5 * unit.T, c, scale


def _check_definite(U: np.ndarray, c: float, what: str) -> None:
    """The exact floor lambda_min > 1e-13 lambda_max on U; reports c U's."""
    evals = np.linalg.eigvalsh(U)
    if evals[0] <= _PD_TOL * max(evals[-1], 0.0) or evals[0] <= 0.0:
        raise DomainError(
            f"{what} is not positive definite (eigenvalue range "
            f"[{float(evals[0]) * c:.3e}, {float(evals[-1]) * c:.3e}])")


def validate_pd(A, what: str = "matrix") -> tuple[np.ndarray, int]:
    """Check A is symmetric positive definite of even order; symmetrize.

    Inputs within relative asymmetry 1e-8 are symmetrized (measurement
    noise); anything worse is rejected as a wrong-domain input rather
    than silently averaged.  Definiteness is the relative floor
    lambda_min > 1e-13 lambda_max on the eigenvalues of A.

    Returns the symmetrized array and the half-order n.
    """
    U, c, _ = _symmetrized(A, what)
    _check_definite(U, c, what)
    return c * U, U.shape[0] // 2


def _factor(A, tol: float, vectors: bool, what: str = "matrix"):
    """Validate A and factor its unit form: (U, c, delta ascending, R, V).

    A = c U as in ``_symmetrized``; U = R R^T, and K = R^T J R is skew
    and similar to J U, so iK is Hermitian with eigenvalues +-delta; V
    (only if ``vectors``) holds its unit eigenvectors for +delta.

    Input checks and verdicts are those of ``validate_pd``, but the
    definiteness floor is usually certified by delta_1 instead of an
    eigvalsh of U.  Ky Fan's minimum principle at k = 1 with the geometric
    mean, over the frame [u, -Ju] for the unit eigenvector u of lambda_min,
    gives delta_1 <= sqrt(lambda_min (Ju)^T U (Ju)) <= sqrt(lambda_min
    lambda_max), so lambda_min / lambda_max >= delta_1^2 / ||U||_F^2.
    delta_1 > sqrt(100 * 1e-13) ||U||_F therefore clears the floor
    with a factor 100 to spare for rounding.  Only when that test fails
    (delta_1 tiny or negative), or when Cholesky fails, does the
    exact floor check run, before any NumericalError, so every input is
    rejected by the same rule with the same message as ``validate_pd``.
    U's entries are below 2 in magnitude, so R and the spectrum are
    finite, or numpy raises LinAlgError.
    Raises NumericalError when the spectrum fails to pair up: delta_1 <=
    1e3 eps delta_n, or +- halves more than tol delta_n apart.
    """
    _check_tol(tol)
    U, c, fro = _symmetrized(A, what)
    n = U.shape[0] // 2
    try:
        R = np.linalg.cholesky(U)
    except np.linalg.LinAlgError as exc:
        _check_definite(U, c, what)
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    ev, V = _skew_eigh(R, vectors)
    # delta_1 itself, not its square, so a negative value falls through.
    if not ev[n] > _CERT_FLOOR * fro:
        _check_definite(U, c, what)
    # K is normal, so ||K||_2 is its largest eigenvalue modulus, delta_n.
    scale = float(ev[-1])
    pair_floor = 1e3 * np.finfo(float).eps
    if ev[n] <= pair_floor * scale:
        raise NumericalError(
            f"eigenvalue pairing failure: delta_1 / delta_n = {ev[n] / scale:.3e}"
            f" is below {pair_floor:.3e} (matrix numerically singular?)")
    mirror = float(np.abs(ev[n:] + ev[n - 1::-1]).max())
    if mirror > tol * scale:
        raise NumericalError(f"eigenvalue pairing failure: +- halves differ by "
                             f"{mirror / scale:.3e} delta_n, exceeding {tol:.1e}")
    return U, c, ev[n:], R, V


def _delta(A, tol: float, what: str = "matrix"):
    """A's unit form U, its scale c and U's symplectic eigenvalues."""
    U, c, delta, _, _ = _factor(A, tol, vectors=False, what=what)
    return U, c, delta


def symplectic_eigenvalues(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending symplectic eigenvalues of a positive definite matrix.

    These are the moduli of the eigenvalues of J A, one per conjugate
    pair +-i delta_j; computed as c times the positive eigenvalues of the
    Hermitian iK for K = R^T J R and the Cholesky factor A / c = R R^T.
    """
    _, c, delta = _delta(A, tol)
    return _in_units(c, delta)


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
        return _reconstruct(self.W, self.delta)


def _reconstruct(W: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """W (D oplus D) W^T."""
    d = np.concatenate([delta, delta])
    return (W * d) @ W.T


def _williamson(A, tol: float):
    """U, c and A's Williamson factorization: W is U's, delta is c D."""
    U, c, delta, R, V = _factor(A, tol, vectors=True)
    W = _symplectic_basis(R, V, delta)
    rec = float(np.linalg.norm(U - _reconstruct(W, delta)) / np.linalg.norm(U))
    if not rec <= tol:
        raise NumericalError(
            f"Williamson reconstruction residual {rec:.3e} exceeds {tol:.1e}")
    ok, symp_res, _ = _form_check(W, tol)
    if not ok:
        raise NumericalError(
            f"Williamson factor failed symplecticity (residual {symp_res:.3e})")
    return U, c, WilliamsonFactorization(W, _in_units(c, delta), rec, symp_res)


def williamson(A, tol: float = DEFAULT_TOL) -> WilliamsonFactorization:
    """Williamson normal form of a positive definite matrix.

    With U = A / c = R R^T and v = u + i w the unit eigenvectors of iK
    for +delta, K = R^T J R, the matrix L = sqrt(2) [w u] is orthogonal
    with L^T K L = [[0, D], [-D, 0]].  The factor W = R L (D^{-1/2} oplus
    D^{-1/2}) then satisfies both U = W (D oplus D) W^T (since L L^T = I)
    and W^T J W = J (since the inner congruence collapses to J), both
    verified before returning; A's delta is c D.
    """
    return _williamson(A, tol)[2]


def _diag_m(d: np.ndarray, mean: MeanSpec) -> np.ndarray:
    """M(d_j, d_{m+j}), j = 1..m, over the last axis (length 2m) of d.

    diag(A) for the Schur check, diag(X^T A X) for every Ky Fan frame,
    a batch of frames in kyfan_search.  The mean's evaluator receives the
    pairs as 1-D arrays whatever the batch shape.  Every library call
    evaluates means here, so a custom mean is vetted here, once per spec."""
    if mean._refusal is not None:
        raise DomainError(mean._refusal)
    m = d.shape[-1] // 2
    out = evaluate_pairs(mean, d[..., :m].ravel(), d[..., m:].ravel())
    return out.reshape(d.shape[:-1] + (m,))


def symplectic_diag(A, mean: MeanSpec) -> np.ndarray:
    """Mean-indexed symplectic diagonal [M(a_jj, a_{n+j,n+j})]_{j=1..n}.

    Pairs the j-th and (n+j)-th main-diagonal entries through the mean,
    in the original coordinate order (no sorting).
    """
    A, _ = validate_pd(A)
    return _diag_m(np.diag(A), mean)
