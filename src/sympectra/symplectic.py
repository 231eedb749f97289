"""The standard symplectic form and the matrix toolbox built around it.

Conventions: the ambient order is 2n with the split (block) layout
``[[P, Q], [R, S]]``, the form is ``J = [[0, I], [-I, 0]]``, and a matrix
W is symplectic when ``W^T J W = J``.  A 2n-by-2k matrix X is a symplectic
frame when ``X^T J_{2n} X = J_{2k}``; its columns split as ``[X1 X2]`` with
X1, X2 of width k.  Predicates report raw Frobenius residuals so callers
can re-threshold.

One construction turns a basis into a symplectic one: the Hermitian
eigensolve of i R^T J R (``_skew_eigh``) and the scaling of its
eigenvectors (``_symplectic_basis``).  ``complete_to_symplectic`` applies
it to an orthonormal basis of a frame's J-orthogonal complement, and
``spectral.williamson`` to the Cholesky factor of A.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, _check_tol

__all__ = [
    "DEFAULT_TOL",
    "SymplecticCheck",
    "standard_J",
    "is_symplectic",
    "expanding_sum",
    "s_pinching",
    "frame_residual",
    "check_frame",
    "complete_to_symplectic",
    "random_symplectic",
    "random_pd",
    "expm_batch",
]

DEFAULT_TOL = 1e-8


def _as_square_even(M, what: str = "matrix") -> tuple[np.ndarray, int]:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] % 2 != 0 or M.shape[0] == 0:
        raise DomainError(f"{what} must have positive even order, got {M.shape[0]}")
    return M, M.shape[0] // 2


def standard_J(n: int) -> np.ndarray:
    """The order-2n symplectic form [[0, I_n], [-I_n, 0]].

    Satisfies J^2 = -I and J^T = -J, and splits over block sizes:
    J of order 2(m+n) is the expanding sum of the order-2m and order-2n
    forms.
    """
    if n < 1:
        raise DomainError("half-order n must be >= 1")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _pow2_scale(A: np.ndarray) -> float:
    """The power of two within a factor 2 below max |a_ij| (1 for A = 0).

    Frobenius norms of A divided by it cannot overflow, and dividing by a
    power of two is exact, so relative norms keep every bit.
    """
    return _pow2_below(float(np.abs(A).max()))


def _pow2_below(amax: float) -> float:
    """``_pow2_scale`` from a precomputed max |a_ij|."""
    return math.ldexp(1.0, math.frexp(amax)[1] - 1) if amax > 0 else 1.0


def _skew(R: np.ndarray) -> np.ndarray:
    """R^T J R for R with 2h rows, as G - G^T for G = R_1^T R_2.

    R_1, R_2 are the row halves of R; J R = [R_2; -R_1] is a signed swap,
    so the product is exactly skew and J is never formed.
    """
    h = R.shape[0] // 2
    G = R[:h].T @ R[h:]
    return G - G.T


def _minus_J(S: np.ndarray, k: int, v: float = 1.0) -> np.ndarray:
    """S - v J_{2k}, in place, for S of order 2k."""
    S[:k, k:].flat[::k + 1] -= v  # the diagonal of the +I block
    S[k:, :k].flat[::k + 1] += v  # the diagonal of the -I block
    return S


def _form_check(X: np.ndarray, tol: float) -> tuple[bool, float, float]:
    """(verdict, residual, relative residual) for X^T J_{2n} X = J_{2k}.

    X^T J_{2n} X is formed as G - G^T, G = X_1^T X_2 for the row halves
    X_1, X_2 of X (``_skew``), and J_{2k} is subtracted entrywise.  Below
    max |x_ij| = 2^240 nothing overflows for orders up to 10^4.  Past it,
    column l of X is divided by a power of two 2^e_l first and entry
    (l, m) of G - G^T multiplied back by 2^(e_l + e_m) before J is
    subtracted, so the residual reads inf only when it is out of range.
    The verdict residual <= tol * max(1, ||X||_F^2) is taken with both
    sides divided by the exact c^2, c = max(1, _pow2_scale(X)).  A
    non-finite residual fails; the relative residual is
    residual / max(1, ||X||_F^2).
    """
    _check_tol(tol)
    k = X.shape[1] // 2
    m = math.frexp(max(1.0, _pow2_scale(X)))[1] - 1  # c = 2^m
    if m < 240:
        res = float(np.linalg.norm(_minus_J(_skew(X), k)))
        res_c = math.ldexp(res, -2 * m)
    else:
        e = np.frexp(np.abs(X).max(axis=0))[1]
        S, E = _skew(np.ldexp(X, -e)), e[:, None] + e
        with np.errstate(over="ignore"):  # an out-of-range residual reads inf
            R = _minus_J(np.ldexp(S, E), k)
            s = max(1.0, _pow2_scale(R))
            res = float(np.linalg.norm(R / s)) * s
        res_c = float(np.linalg.norm(
            _minus_J(np.ldexp(S, E - 2 * m), k, math.ldexp(1.0, -2 * m))))
    scale = max(math.ldexp(1.0, -2 * m),
                float(np.linalg.norm(np.ldexp(X, -m) if m else X)) ** 2)
    return res_c <= tol * scale, res, res_c / scale


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def is_symplectic(W, tol: float = DEFAULT_TOL) -> SymplecticCheck:
    """Test W^T J W = J; the raw Frobenius residual is always returned.

    W^T J W is formed as G - G^T for G = W_1^T W_2, the product of W's
    row halves, so J is applied as a block swap and never multiplied.
    The verdict compares the residual against ``tol * max(1, ||W||_F^2)``,
    matching the quadratic scaling of the defect in W; it is taken after
    an exact power-of-two rescaling, so it holds past the overflow of
    ||W||_F^2.
    """
    W, _ = _as_square_even(W)
    ok, residual, _ = _form_check(W, tol)
    return SymplecticCheck(ok, residual)


def expanding_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Interleaved direct sum: direct-sum each of the P/Q/R/S quadrants.

    Each block must be square of even order.  The result is similar to the
    ordinary direct sum (so eigenvalues are preserved as a multiset), and
    the construction is multiplicative over matching block lists.
    """
    if len(blocks) == 0:
        raise DomainError("expanding_sum needs at least one block")
    parts = [_as_square_even(B, "expanding_sum block") for B in blocks]
    n = sum(m for _, m in parts)
    out = np.zeros((2 * n, 2 * n))
    offset = 0
    for B, m in parts:
        # Block rows/columns 1..m land at offset.., m+1..2m at n + offset..
        idx = np.r_[offset:offset + m, n + offset:n + offset + m]
        out[np.ix_(idx, idx)] = B
        offset += m
    return out


def s_pinching(A, partition: Sequence[int]) -> np.ndarray:
    """Project A onto the expanding-sum block pattern of a partition.

    ``partition`` lists positive block sizes summing to the half-order n.
    Within each of the four n-by-n quadrants only the diagonal blocks of
    the partition survive; everything else is zeroed.  Positive
    definiteness is preserved.
    """
    A, n = _as_square_even(A)
    sizes = [int(m) for m in partition]
    if any(m < 1 for m in sizes) or sum(sizes) != n:
        raise DomainError(
            f"partition {sizes} must have positive parts summing to {n}")
    mask = expanding_sum([np.ones((2 * m, 2 * m)) for m in sizes])
    return np.where(mask != 0, A, 0.0)


def _as_frame(X) -> np.ndarray:
    """X as a float array, checked to be 2n-by-2k with 1 <= k <= n."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] % 2 or X.shape[1] % 2 or X.shape[1] == 0:
        raise DomainError(f"frame must be 2n-by-2k, got shape {X.shape}")
    n, k = X.shape[0] // 2, X.shape[1] // 2
    if k > n:
        raise DomainError(f"frame width 2k={2 * k} exceeds order 2n={2 * n}")
    return X


def frame_residual(X) -> float:
    """Frobenius norm of X^T J_{2n} X - J_{2k} for a 2n-by-2k matrix."""
    return _form_check(_as_frame(X), DEFAULT_TOL)[1]


def check_frame(X, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate the frame relation and return X as a float array.

    The residual is held against ``tol * max(1, ||X||_F^2)``, as in
    ``is_symplectic``.
    """
    X = _as_frame(X)
    ok, res, rel = _form_check(X, tol)
    if not ok:
        raise DomainError(
            f"not a symplectic frame: residual {res:.3e}, relative to "
            f"max(1, ||X||_F^2) {rel:.3e} > {tol:.1e}")
    return X


def _skew_eigh(R: np.ndarray, vectors: bool):
    """Ascending spectrum of the Hermitian i R^T J R, and its eigenvectors.

    R has 2n rows; the skew R^T J R is ``_skew(R)``.  Its spectrum pairs up as
    +-delta.  V (only if ``vectors``, else None) holds the unit
    eigenvectors for the upper half of the spectrum, the +delta half.
    """
    H = 1j * _skew(R)
    if not vectors:
        return np.linalg.eigvalsh(H), None
    ev, V = np.linalg.eigh(H)
    return ev, V[:, R.shape[1] // 2:]


def _symplectic_basis(R: np.ndarray, V: np.ndarray,
                      delta: np.ndarray) -> np.ndarray:
    """R L (D^{-1/2} oplus D^{-1/2}) for L = sqrt(2) [Im V, Re V].

    With V and delta from ``_skew_eigh(R, True)``, L is orthogonal and
    L^T (R^T J R) L = [[0, D], [-D, 0]], so the result Y spans the range
    of R and satisfies Y^T J Y = J.
    """
    L = np.sqrt(2.0) * np.hstack([V.imag, V.real])
    dinv = 1.0 / np.sqrt(np.concatenate([delta, delta]))
    return (R @ L) * dinv


def complete_to_symplectic(X, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend a symplectic frame to a full symplectic matrix.

    Given X = [X1 X2] of shape 2n-by-2k with X^T J X = J_{2k}, returns a
    square symplectic W = [X1 Y1 X2 Y2] whose columns 1..k and n+1..n+k
    are X1 and X2 unchanged.  The new columns span the J-orthogonal
    complement of X, the range of the projector Q = I + X J_{2k} X^T J,
    whose dimension 2(n-k) is known: its top 2(n-k) left singular vectors
    B are an orthonormal basis.  The skew form B^T J B is normalized to J
    by the Hermitian eigensolve that also gives the Williamson factor, so
    Y = B L (D^{-1/2} oplus D^{-1/2}) as in ``williamson``.

    Raises
    ------
    DomainError
        If X fails the frame residual check.
    NumericalError
        If the assembled W fails its own symplecticity check (a skew form
        numerically degenerate on the complement ends there too).
    """
    X = check_frame(X, tol)
    n, k = X.shape[0] // 2, X.shape[1] // 2
    if k == n:
        return X.copy()
    m = n - k

    # Q = I + (X J_{2k} X^T) J_{2n}, each J applied as a signed column swap.
    M = np.hstack([-X[:, k:], X[:, :k]]) @ X.T
    Q = np.eye(2 * n) + np.hstack([-M[:, n:], M[:, :n]])
    B = np.linalg.svd(Q)[0][:, :2 * m]
    ev, V = _skew_eigh(B, vectors=True)
    Y = _symplectic_basis(B, V, ev[m:])
    W = np.hstack([X[:, :k], Y[:, :m], X[:, k:], Y[:, m:]])
    ok, res = is_symplectic(W, tol)
    if not ok:
        raise NumericalError(
            f"symplectic completion failed verification (residual {res:.3e})")
    return W


# Pade-13 coefficients for the scaling-and-squaring matrix exponential.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 4.25


def expm_batch(H: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small square matrices.

    Scaling-and-squaring with a degree-13 Pade approximant; the scaling
    power is shared across the batch (chosen from the largest 1-norm), so
    the result is deterministic and batch-order independent.  An empty
    stack comes back empty; a NaN or inf entry raises DomainError.
    """
    H = np.asarray(H, dtype=float)
    if H.size == 0:
        return H.copy()
    squeeze = H.ndim == 2
    if squeeze:
        H = H[None]
    m = H.shape[-1]
    norm = np.abs(H).sum(axis=-2).max(axis=-1).max()
    if not math.isfinite(norm):
        raise DomainError("matrix exponential of non-finite entries")
    s = max(0, int(np.ceil(np.log2(norm / _PADE13_THETA)))) if norm > _PADE13_THETA else 0
    A = H / (2.0 ** s)
    b = _PADE13
    eye = np.broadcast_to(np.eye(m), A.shape)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    Uu = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
              + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    Vv = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
          + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(Vv - Uu, Vv + Uu)
    for _ in range(s):
        E = E @ E
    return E[0] if squeeze else E


def _exp_hamiltonian(rng, count: int, n: int, spread: float) -> np.ndarray:
    """``count`` draws of exp(J S) for symmetric Gaussian S of order 2n.

    J S is the row blocks [S_2; -S_1] of S, exactly the dense product."""
    S = rng.normal(scale=spread, size=(count, 2 * n, 2 * n))
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    return expm_batch(np.concatenate([S[:, n:], -S[:, :n]], axis=1))


def random_symplectic(n: int, seed=0, spread: float = 1.0) -> np.ndarray:
    """Seeded random symplectic matrix of order 2n.

    Construction: exp(J S) with S symmetric Gaussian (entries scaled by
    ``spread``), composed with a shear [[I, 0], [Z, I]] for symmetric
    Gaussian Z.  The exponential covers the compact directions of the
    group, the shear the non-compact ones; spread -> 0 collapses to the
    identity.
    """
    if n < 1:
        raise DomainError("half-order n must be >= 1")
    if not spread > 0:
        raise DomainError("spread must be positive")
    rng = np.random.default_rng(seed)
    W = _exp_hamiltonian(rng, 1, n, spread)[0]
    Z = rng.normal(scale=spread, size=(n, n))
    Z = 0.5 * (Z + Z.T)
    shear = np.eye(2 * n)
    shear[n:, :n] = Z
    return W @ shear


def random_pd(n: int, seed=0, spread: float = 1.0) -> np.ndarray:
    """Seeded random positive definite matrix of order 2n.

    Eigenvalues are log-uniform in [exp(-spread), exp(spread)] with a Haar
    orthogonal eigenbasis, so ``spread`` directly controls conditioning.
    """
    if n < 1:
        raise DomainError("half-order n must be >= 1")
    if not spread > 0:
        raise DomainError("spread must be positive")
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(2 * n, 2 * n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    lam = np.exp(rng.uniform(-spread, spread, size=2 * n))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)
