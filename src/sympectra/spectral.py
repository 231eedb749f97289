"""Symplectic eigenvalues and Williamson normal form.

For positive definite A of order 2n there is a symplectic W and positive
diagonal D = diag(delta) with A = W (D oplus D) W^T.  The delta_j are the
symplectic eigenvalues: the moduli of the eigenvalues of J A, which come
in conjugate pairs +-i delta_j.  They are invariant under symplectic
congruence and additive (as multisets) over the expanding sum.

Every call works on A's unit form U = A / c (see ``symplectic``):
delta(A) = c delta(U) and W is U's.  This module is the library's only
reader of a positive definite matrix: ``_reuse`` for the two routes
below, and ``_definite`` for a caller with no spectrum to certify
definiteness from.  The numerical route (``_reuse``) is one Cholesky
factorization U = R R^T and one K = R^T J R per matrix, and one solve
of K per matrix and route.  Each route reads tol once, as the float
``_check_tol`` returns.  One entry keeps the last matrix and tol read,
its R and K, and what each route has solved on it: a call on that
matrix and tol reuses R and K, and its own route's verified result when
there is one.  So Schur's check after
``symplectic_eigenvalues``, or ``kyfan_minimizer`` after ``williamson``,
factors nothing, and ``williamson`` after ``symplectic_eigenvalues``, or
the reverse, solves K again but takes the same R and K.  K is
exactly skew-symmetric and similar to the non-normal J U, so its singular
values are the delta_j, each twice, and the Hermitian matrix iK has the
real eigenvalues +-delta_j.  Calls that need delta alone take the real
singular values of K; the Williamson factor takes the complex Hermitian
eigensolve of iK, whose eigenvectors for +delta give W.

The definiteness floor needs no eigensolve of U on either route: Ky
Fan's minimum principle at k = 1 bounds lambda_min / lambda_max below by
delta_1^2 / ||U||_F^2, so a delta_1 well clear of the floor certifies
it.  Only inputs whose delta_1 fails that test run the exact check on
U's eigenvalues.  ``_definite`` always runs it: ``symplectic_diag``,
``kyfan_objective`` and the realization, where its own certificate
fails, read a matrix through it.

``symplectic_diag`` scores a mean on U's diagonal through
``means._diag_m``, as every other mean-indexed answer does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, _check_tol
from .means import MeanSpec, _diag_m
from .symplectic import (DEFAULT_TOL, _as_square_even, _form_check, _fro,
                         _in_units, _skew, _skew_eigh, _symplectic_basis)

__all__ = [
    "WilliamsonFactorization",
    "symplectic_eigenvalues",
    "williamson",
    "symplectic_diag",
]

# Relative asymmetry above which an input is rejected instead of symmetrized.
_ASYM_TOL = 1e-8
# Relative floor for the smallest eigenvalue in the definiteness check.
_PD_TOL = 1e-13
# lambda_min / lambda_max above this certifies the definiteness floor with a
# safety factor 100 for rounding; delta_1 / ||A||_F above its root does too.
_PD_CERT = 100 * _PD_TOL
_CERT_FLOOR = math.sqrt(_PD_CERT)
# delta_1 / delta_n at or below this is a pairing failure.
_PAIR_FLOOR = 1e3 * np.finfo(float).eps


# The last matrix and tol read, as ``_reuse`` stores them: (key, (U, c,
# ||U||_F, R, K), {route: result}), or None.
_LAST = None


def _symmetrized(A: np.ndarray, c: float) -> tuple[np.ndarray, float, float]:
    """A, as ``_as_square_even`` read it with its scale c, symmetrized.

    Inputs within relative asymmetry 1e-8 are symmetrized (measurement
    noise); anything worse is rejected as a wrong-domain input rather
    than silently averaged.  Returns the unit form U = sym(A) / c of
    ``symplectic``, c and ||A / c||_F.
    """
    unit = A / c
    scale = _fro(unit)
    asym = _fro(unit - unit.T)
    if asym > _ASYM_TOL * scale:
        raise DomainError(
            f"matrix is not symmetric: ||A - A^T|| / ||A|| = {asym / scale:.3e}")
    # 0.5 u_ij + 0.5 u_ji entrywise, with one product and one strided read.
    half = 0.5 * unit
    return half + half.T, c, scale


def _times(x: float, c: float) -> str:
    """x c to four digits; a product past the double range is printed
    exactly, rather than as inf."""
    if math.isfinite(x * c):
        return f"{x * c:.3e}"
    from decimal import Decimal  # here, so that no process start pays for it
    return f"{Decimal(x) * Decimal(c):.3e}"


def _check_definite(U: np.ndarray, c: float) -> None:
    """The exact floor lambda_min > 1e-13 lambda_max on U; reports c U's."""
    evals = np.linalg.eigvalsh(U)
    if evals[0] <= _PD_TOL * max(evals[-1], 0.0) or evals[0] <= 0.0:
        raise DomainError(
            "matrix is not positive definite (eigenvalue range "
            f"[{_times(float(evals[0]), c)}, {_times(float(evals[-1]), c)}])")


def _definite(A) -> tuple[np.ndarray, float]:
    """A's unit form U and scale c, as ``_symmetrized`` reads them, once the
    exact floor check (``_check_definite``) has passed: the reader of a
    matrix with no spectrum to certify definiteness from."""
    U, c, _ = _symmetrized(*_as_square_even(A))
    _check_definite(U, c)
    return U, c


def _factor(U: np.ndarray, c: float, fro: float, K: np.ndarray, tol: float,
            vectors: bool):
    """Solve the skew K = R^T J R of a unit form U = A / c = R R^T with
    ||U||_F = fro: (delta ascending, V).

    K is similar to J U.  Without ``vectors`` delta comes from K's
    singular values, sorted descending: each adjacent pair holds one
    delta_j twice, and delta_j is the pair's mean.  With ``vectors`` the
    Hermitian iK is solved instead: its eigenvalues are +-delta, and V
    holds its unit eigenvectors for +delta.

    The definiteness floor is ``_check_definite``'s, but it is usually
    certified by delta_1 instead of an eigensolve of U.  Ky Fan's minimum
    principle at k = 1 with the geometric mean, over the frame [u, -Ju] for
    the unit eigenvector u of lambda_min, gives delta_1 <= sqrt(lambda_min
    (Ju)^T U (Ju)) <= sqrt(lambda_min lambda_max), so lambda_min /
    lambda_max >= delta_1^2 / ||U||_F^2.  delta_1 > sqrt(100 * 1e-13) ||U||_F
    therefore clears the floor with a factor 100 to spare for rounding;
    delta_1 is the smaller member of the smallest singular-value pair, or
    the smallest eigenvalue of the +delta half.  Only when that test fails
    (delta_1 tiny, or negative in the Hermitian half), or when Cholesky
    fails (``_reuse``), does the exact floor check run, before any
    NumericalError, so every input is rejected by the same rule with the
    same message as ``symplectic_diag``, which always runs it.  U's
    entries are below 2 in magnitude, so R and the spectrum are finite, or
    numpy raises LinAlgError.

    Raises NumericalError when the spectrum fails to pair up: delta_1 <=
    1e3 eps delta_n, or the two members of some pair (the +delta half and
    the mirrored -delta half) more than tol delta_n apart.
    """
    n = U.shape[0] // 2
    if vectors:
        ev, V = _skew_eigh(K)
        # K is normal, so ||K||_2 is its largest eigenvalue modulus, delta_n.
        delta, low, scale = ev[n:], ev[n], float(ev[-1])
        mirror = float(np.abs(ev[n:] + ev[n - 1::-1]).max())
    else:
        V = None
        sv = np.linalg.svd(K, compute_uv=False)
        # ||K||_2 is its largest singular value, delta_n.
        low, scale = sv[-1], float(sv[0])
        delta = 0.5 * (sv[-1::-2] + sv[-2::-2])
        mirror = float(np.abs(sv[::2] - sv[1::2]).max())
    # delta_1 itself, not its square, so a negative value falls through.
    if not low > _CERT_FLOOR * fro:
        _check_definite(U, c)
    if low <= _PAIR_FLOOR * scale:
        raise NumericalError(
            f"eigenvalue pairing failure: delta_1 / delta_n = {low / scale:.3e}"
            f" is below {_PAIR_FLOOR:.3e} (matrix numerically singular?)")
    if mirror > tol * scale:
        raise NumericalError(f"eigenvalue pairing failure: +- halves differ by "
                             f"{mirror / scale:.3e} delta_n, exceeding {tol:.1e}")
    return delta, V


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _reuse(route: str, A, tol: float, solve):
    """(U, c, solve(U, c, fro, R, K)) for A's unit form U = sym(A) / c,
    ||U||_F = fro, its Cholesky factor U = R R^T and K = R^T J R, or the
    route's last result when A and tol are the last read; tol is a float
    that ``_check_tol`` returned.  When Cholesky fails, the exact floor
    check (``_check_definite``) runs first, so a matrix that is not
    positive definite is refused as such.

    One entry holds the last matrix and tol read, its factors and the
    result of each route that succeeded on it, so a route's miss on that
    matrix and tol runs only its own solve and checks.  Any other matrix
    or tol replaces the whole entry, by one assignment, once its route
    succeeds: a refused input stores nothing, so it is refused again with
    its message.  The key is the matrix ``_as_square_even`` read, by
    shape, strides and bytes (``_fro`` sums in memory order, so another
    layout may round differently), and tol.  Stored arrays are read-only.
    """
    global _LAST
    M, c = _as_square_even(A)
    key = (M.shape, M.strides, tol, M.tobytes())
    # The empty key () matches no call's key.
    last_key, shared, done = _LAST or ((), None, {})
    if last_key != key:
        U, c, fro = _symmetrized(M, c)
        try:
            R = np.linalg.cholesky(U)
        except np.linalg.LinAlgError as exc:
            _check_definite(U, c)
            raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
        shared, done = (_read_only(U), c, fro, _read_only(R),
                        _read_only(_skew(R))), {}
    if route not in done:
        done = {**done, route: solve(*shared)}
        _LAST = key, shared, done
    return shared[0], shared[1], done[route]


def _delta(A, tol: float):
    """A's unit form U, its scale c and U's symplectic eigenvalues, read-only."""
    tol = _check_tol(tol)
    return _reuse("delta", A, tol, lambda U, c, fro, R, K: _read_only(
        _factor(U, c, fro, K, tol, False)[0]))


def symplectic_eigenvalues(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending symplectic eigenvalues of a positive definite matrix.

    These are the moduli of the eigenvalues of J A, one per conjugate
    pair +-i delta_j; computed as c times the singular values of the real
    skew K = R^T J R for the Cholesky factor A / c = R R^T, which come in
    equal pairs, one pair per delta_j.  A repeat call on the same matrix
    and tol, or a delta-only call after it (``schur_check``, ``kyfan_search``),
    reuses that verified delta (see the module docstring).
    """
    _, c, delta = _delta(A, tol)
    return _in_units(c, delta)


class WilliamsonFactorization(NamedTuple):
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


def _williamson(A, tol: float):
    """U, c and A's Williamson factorization, read-only: W is U's, delta
    is c D."""
    tol = _check_tol(tol)

    def solve(U, c, fro, R, K):
        delta, V = _factor(U, c, fro, K, tol, True)
        W = _symplectic_basis(R, V, delta)
        d = np.concatenate([delta, delta])
        rec = _fro(U - (W * d) @ W.T) / _fro(U)
        if not rec <= tol:
            raise NumericalError(
                f"Williamson reconstruction residual {rec:.3e} exceeds {tol:.1e}")
        ok, symp_res, _ = _form_check(W, tol)
        if not ok:
            raise NumericalError(
                f"Williamson factor failed symplecticity (residual {symp_res:.3e})")
        return WilliamsonFactorization(
            _read_only(W), _read_only(_in_units(c, delta)), rec, symp_res)
    return _reuse("williamson", A, tol, solve)


def williamson(A, tol: float = DEFAULT_TOL) -> WilliamsonFactorization:
    """Williamson normal form of a positive definite matrix.

    With U = A / c = R R^T and v = u + i w the unit eigenvectors of iK
    for +delta, K = R^T J R, the matrix L = sqrt(2) [w u] is orthogonal
    with L^T K L = [[0, D], [-D, 0]].  The factor W = R L (D^{-1/2} oplus
    D^{-1/2}) then satisfies both U = W (D oplus D) W^T (since L L^T = I)
    and W^T J W = J (since the inner congruence collapses to J), both
    verified before returning; A's delta is c D.  A repeat call on the
    same matrix and tol returns copies of the factorization verified
    first (see the module docstring).
    """
    fact = _williamson(A, tol)[2]
    return fact._replace(W=fact.W.copy(), delta=fact.delta.copy())


def symplectic_diag(A, mean: MeanSpec) -> np.ndarray:
    """Mean-indexed symplectic diagonal [M(a_jj, a_{n+j,n+j})]_{j=1..n}.

    Pairs the j-th and (n+j)-th main-diagonal entries through the mean,
    in the original coordinate order (no sorting); scored on A's unit
    form.  A has no spectrum here to certify definiteness, so it is read
    by ``_definite``, which runs the exact floor check.
    """
    U, c = _definite(A)
    return _in_units(c, _diag_m(U.diagonal(), mean), "symplectic diagonal")
