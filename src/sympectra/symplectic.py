"""The standard symplectic form and the matrix toolbox built around it.

Conventions: the ambient order is 2n with the split (block) layout
``[[P, Q], [R, S]]``, the form is ``J = [[0, I], [-I, 0]]``, and a matrix
W is symplectic when ``W^T J W = J``.  A 2n-by-2k matrix X is a symplectic
frame when ``X^T J_{2n} X = J_{2k}``; its columns split as ``[X1 X2]`` with
X1, X2 of width k.  Predicates report raw Frobenius residuals so callers
can re-threshold.  What a matrix, a frame and a vector are (real
numbers, shape and finite entries) is decided here, by
``_as_square_even``, ``_as_frame`` and ``_as_vector``, which convert
through the one ``_as_real``, for the whole library and its command
line; every count (an order, k, a budget, a partition part) is read by
``_count``, and every seed by ``_rng``.

The unit-form rule, for the whole library: a matrix A is divided by the
power of two c = ``_pow2_scale(max |a_ij|)`` <= max |a_ij|, which is
exact.  W and the Ky Fan frames are U = A / c's own; every value (delta,
a Ky Fan value, a mean-indexed diagonal) is computed on U and reported as
c times U's through ``_in_units``, which raises NumericalError where that
overflows or is subnormal.  So a mean is scored as c M(diag U), which is
M(diag A) for the symmetric, homogeneous means the vet admits, and is
never evaluated outside the range U spans (max |u_ij| in [1, 2)).  The
vector layer does the same on the unit pair (x / c, y / c).

One construction turns a basis into a symplectic one: the Hermitian
eigensolve of i R^T J R (``_skew_eigh``) and the scaling of its
eigenvectors (``_symplectic_basis``).  ``complete_to_symplectic`` applies
it to an orthonormal basis of a frame's J-orthogonal complement, and
``spectral.williamson`` to the Cholesky factor of A.
"""

from __future__ import annotations

import math
import operator
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
    "complete_to_symplectic",
    "random_symplectic",
    "random_pd",
]

DEFAULT_TOL = 1e-8
# The smallest normal double.
_TINY = np.finfo(float).tiny


def _as_real(a, what: str) -> np.ndarray:
    """a as a float array; DomainError for complex entries, or for entries
    numpy cannot convert (ragged rows, text, ints past the double range)."""
    try:
        if not np.iscomplexobj(a):
            return np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} entries must be numbers in double range, "
                          "in rows of one length") from exc
    raise DomainError(f"{what} has complex entries")


def _as_square_even(M, what: str = "matrix") -> tuple[np.ndarray, float]:
    """(M, c) for M square of order 2n >= 2 and finite, c its power of two
    (``_pow2_scale``), else DomainError.  Finiteness is read off max |m_ij|,
    which is NaN or inf exactly when an entry is."""
    M = _as_real(M, what)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 or not M.size:
        raise DomainError(f"{what} must be square of even order, got shape {M.shape}")
    amax = float(np.abs(M).max())
    if not math.isfinite(amax):
        raise DomainError(f"{what} has non-finite entries")
    return M, _pow2_scale(amax)


def _as_frame(X) -> np.ndarray:
    """X as a float array, checked to be finite and 2n-by-2k, 1 <= k <= n."""
    X = _as_real(X, "frame")
    if (X.ndim != 2 or X.shape[0] % 2 or X.shape[1] % 2
            or not 0 < X.shape[1] <= X.shape[0]):
        raise DomainError(
            f"frame must be 2n-by-2k with 1 <= k <= n, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DomainError("frame has non-finite entries")
    return X


def _as_vector(v) -> tuple[np.ndarray, float]:
    """(v, max |v_i|) for v a non-empty, finite 1-d float array (a scalar
    reads as a 1-vector), else DomainError."""
    v = np.atleast_1d(_as_real(v, "vector"))
    amax = float(np.abs(v).max()) if v.ndim == 1 and v.size else math.nan
    if not math.isfinite(amax):
        raise DomainError(
            "vector must be a non-empty array, 1-d with finite entries")
    return v, amax


def _count(value, what: str, hi: float = math.inf, lo: float = 1) -> int:
    """value read with ``operator.index``, so 1.5 and "2" are refused
    rather than truncated or parsed, and checked to lie in lo..hi;
    DomainError otherwise."""
    try:
        k = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if not lo <= k <= hi:
        raise DomainError(f"{what} must be >= {lo}" if hi == math.inf
                          else f"{what} must be in {lo}..{hi}, got {k}")
    return k


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; DomainError for a seed numpy refuses
    (a negative or non-integer one) rather than its untyped error."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError("seed must be a non-negative integer (or a "
                          f"sequence of them), got {seed!r}") from None


def _sample(draw, seed, spread) -> np.ndarray:
    """draw(rng), a sampler's matrix at ``spread`` from the generator of
    ``seed``; DomainError unless the spread is positive and finite and the
    draw's entries are finite, so an overflowing draw is refused."""
    if 0 < spread < math.inf:
        with np.errstate(all="ignore"):
            M = draw(_rng(seed))
        if np.isfinite(M).all():
            return M
    raise DomainError("spread must be positive and small enough for a "
                      f"finite draw, got {spread}")


def standard_J(n: int) -> np.ndarray:
    """The order-2n symplectic form [[0, I_n], [-I_n, 0]].

    Satisfies J^2 = -I and J^T = -J, and splits over block sizes:
    J of order 2(m+n) is the expanding sum of the order-2m and order-2n
    forms.
    """
    n = _count(n, "half-order n")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _pow2_scale(amax: float) -> float:
    """The power of two within a factor 2 below amax = max |a_ij| of a
    matrix A (1 for A = 0).

    Frobenius norms of A divided by it cannot overflow, and dividing by a
    power of two is exact, so relative norms keep every bit.
    """
    return math.ldexp(1.0, math.frexp(amax)[1] - 1) if amax > 0 else 1.0


def _fro(M: np.ndarray) -> float:
    """||M||_F of a real M as ``np.linalg.norm`` forms it, bit for bit: the
    root of the dot product of M's entries in memory order."""
    return math.sqrt(np.dot(M.ravel("K"), M.ravel("K")))


def _scaled(c: float, x, what: str, absx=None):
    """c x, a unit-scale answer x in the caller's units; NumericalError
    where it overflows.  Exact otherwise, since c is a power of two.
    ``absx`` is |x|, where the caller has it."""
    if not math.isfinite(c * float((np.abs(x) if absx is None else absx).max())):
        raise NumericalError(
            f"{what} is out of range: it overflows at the input's scale")
    return c * x


def _in_units(c: float, x, what: str = "symplectic spectrum"):
    """``_scaled``, and NumericalError where c min |x| falls below the
    normal range; x is positive (or a positive scalar), as every answer
    of a positive definite matrix and an admitted mean is."""
    absx = np.abs(x)
    if c * float(absx.min()) < _TINY:
        raise NumericalError(
            f"{what} is out of range: it underflows at the input's scale")
    return _scaled(c, x, what, absx)


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
    S.flat[k:2 * k * k:2 * k + 1] -= v  # the diagonal of the +I block
    S.flat[2 * k * k::2 * k + 1] += v  # the diagonal of the -I block
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
    sides divided by the exact c^2, c = max(1, _pow2_scale(max |x_ij|)).
    A non-finite residual fails; the relative residual is
    residual / max(1, ||X||_F^2).
    """
    tol = _check_tol(tol)
    k = X.shape[1] // 2
    m = math.frexp(max(1.0, _pow2_scale(np.abs(X).max())))[1] - 1  # c = 2^m
    if m < 240:
        res = _fro(_minus_J(_skew(X), k))
        res_c = math.ldexp(res, -2 * m)
    else:
        e = np.frexp(np.abs(X).max(axis=0))[1]
        S, E = _skew(np.ldexp(X, -e)), e[:, None] + e
        with np.errstate(over="ignore"):  # an out-of-range residual reads inf
            R = _minus_J(np.ldexp(S, E), k)
            s = max(1.0, _pow2_scale(np.abs(R).max()))
            res = _fro(R / s) * s
        res_c = _fro(
            _minus_J(np.ldexp(S, E - 2 * m), k, math.ldexp(1.0, -2 * m)))
    scale = max(math.ldexp(1.0, -2 * m),
                _fro(np.ldexp(X, -m) if m else X) ** 2)
    return res_c <= tol * scale, res, res_c / scale


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def is_symplectic(X, tol: float = DEFAULT_TOL) -> SymplecticCheck:
    """Test the frame relation X^T J_{2n} X = J_{2k} for a 2n-by-2k X,
    1 <= k <= n; a square X (k = n) is a symplectic matrix.  The raw
    Frobenius residual is always returned.

    X^T J X is formed as G - G^T for G = X_1^T X_2, the product of X's
    row halves, so J is applied as a block swap and never multiplied.
    The verdict compares the residual against ``tol * max(1, ||X||_F^2)``,
    matching the quadratic scaling of the defect in X; it is taken after
    an exact power-of-two rescaling, so it holds past the overflow of
    ||X||_F^2.  Any other shape, or a non-finite entry, raises DomainError.
    """
    ok, residual, _ = _form_check(_as_frame(X), tol)
    return SymplecticCheck(ok, residual)


def expanding_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Interleaved direct sum: direct-sum each of the P/Q/R/S quadrants.

    Each block must be square of even order.  The result is similar to the
    ordinary direct sum (so eigenvalues are preserved as a multiset), and
    the construction is multiplicative over matching block lists.
    """
    if len(blocks) == 0:
        raise DomainError("expanding_sum needs at least one block")
    parts = [_as_square_even(B, "expanding_sum block")[0] for B in blocks]
    n = sum(B.shape[0] for B in parts) // 2
    out = np.zeros((2 * n, 2 * n))
    offset = 0
    for B in parts:
        m = B.shape[0] // 2
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
    A = _as_square_even(A)[0]
    n = A.shape[0] // 2
    # Each part is read as an integer; their range is the partition's check.
    sizes = [_count(m, "partition part", lo=-math.inf) for m in partition]
    if any(m < 1 for m in sizes) or sum(sizes) != n:
        raise DomainError(
            f"partition {sizes} must have positive parts summing to {n}")
    mask = expanding_sum([np.ones((2 * m, 2 * m)) for m in sizes])
    return np.where(mask != 0, A, 0.0)


def _require_frame(X: np.ndarray, tol: float) -> None:
    """``is_symplectic``'s verdict on a finite float 2n-by-2k X, raised as
    DomainError."""
    tol = _check_tol(tol)
    ok, res, rel = _form_check(X, tol)
    if not ok:
        raise DomainError(
            f"not a symplectic frame: residual {res:.3e}, relative to "
            f"max(1, ||X||_F^2) {rel:.3e} > {tol:.1e}")


def _skew_eigh(K: np.ndarray):
    """Ascending spectrum of the Hermitian iK, and its eigenvectors.

    K is a skew R^T J R, ``_skew(R)``.  Its spectrum pairs up as +-delta,
    and V holds the unit eigenvectors for the upper half of the spectrum,
    the +delta half.  Calls that need delta alone take the real singular
    values of K instead (``spectral._factor``).
    """
    ev, V = np.linalg.eigh(1j * K)
    return ev, V[:, K.shape[1] // 2:]


def _symplectic_basis(R: np.ndarray, V: np.ndarray,
                      delta: np.ndarray) -> np.ndarray:
    """R L (D^{-1/2} oplus D^{-1/2}) for L = sqrt(2) [Im V, Re V].

    With V and delta from ``_skew_eigh(_skew(R))``, L is orthogonal and
    L^T (R^T J R) L = [[0, D], [-D, 0]], so the result Y spans the range
    of R and satisfies Y^T J Y = J.
    """
    L = math.sqrt(2.0) * np.concatenate((V.imag, V.real), axis=1)
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
    X = _as_frame(X)
    _require_frame(X, tol)
    n, k = X.shape[0] // 2, X.shape[1] // 2
    if k == n:
        return X.copy()
    m = n - k

    # Q = I + (X J_{2k} X^T) J_{2n}, each J applied as a signed column swap.
    M = np.hstack([-X[:, k:], X[:, :k]]) @ X.T
    Q = np.eye(2 * n) + np.hstack([-M[:, n:], M[:, :n]])
    B = np.linalg.svd(Q)[0][:, :2 * m]
    ev, V = _skew_eigh(_skew(B))
    Y = _symplectic_basis(B, V, ev[m:])
    W = np.hstack([X[:, :k], Y[:, :m], X[:, k:], Y[:, m:]])
    ok, res, _ = _form_check(W, tol)
    if not ok:
        raise NumericalError(
            f"symplectic completion failed verification (residual {res:.3e})")
    return W


def _unitaries(rng, count: int, n: int, k: int, spread: float) -> np.ndarray:
    """``count`` n-by-k isometries: the first k columns of a unitary.

    Each is the Q factor of the first k columns of I + spread Z, Z complex
    Gaussian, with its phases fixed so that R has a positive diagonal;
    spread -> 0 gives the first k columns of I.
    """
    Z = rng.normal(scale=spread, size=(2, count, n, k))
    M = Z[0] + 1j * Z[1]
    M[:, :k] += np.eye(k)
    Q, R = np.linalg.qr(M)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


def _euler_frames(rng, count: int, n: int, k: int,
                  spread: float) -> np.ndarray:
    """``count`` random symplectic frames X = O(U) (e^r oplus e^-r) O(V).

    The Euler (Bloch-Messiah) form: O(U) = [[Re U, -Im U], [Im U, Re U]]
    is orthogonal and symplectic for a unitary U, and O(V) an orthonormal
    2n-by-2k frame for an n-by-k isometry V; every frame has this form.
    U, r ~ N(0, spread^2) and V are drawn in that order, U and V by
    ``_unitaries``; each factor is exact to rounding at every spread.
    O(U) [Y_1; Y_2] is [Re P; Im P] for P = U (Y_1 + i Y_2), so no O(.)
    is formed.
    """
    U = _unitaries(rng, count, n, n, spread)
    r = rng.normal(scale=spread, size=(count, n, 1))
    V = _unitaries(rng, count, n, k, spread)
    up, down = np.exp(r), np.exp(-r)
    P = U @ np.concatenate([up * V.real + 1j * (down * V.imag),
                            -up * V.imag + 1j * (down * V.real)], axis=-1)
    return np.concatenate([P.real, P.imag], axis=-2)


def random_symplectic(n: int, seed=0, spread: float = 1.0) -> np.ndarray:
    """Seeded random symplectic matrix of order 2n.

    Construction: the Euler form O(U) (e^r oplus e^-r) O(V) with unitaries
    U, V the phase-fixed Q factors of I + spread Z for complex Gaussian Z,
    and r ~ N(0, spread^2).  Its singular values are exactly e^{+-r_j}
    up to rounding, so they pair up at every spread; spread -> 0
    collapses to the identity.
    """
    n = _count(n, "half-order n")
    return _sample(lambda rng: _euler_frames(rng, 1, n, n, spread)[0],
                   seed, spread)


def random_pd(n: int, seed=0, spread: float = 1.0) -> np.ndarray:
    """Seeded random positive definite matrix of order 2n.

    Eigenvalues are log-uniform in [exp(-spread), exp(spread)] with a Haar
    orthogonal eigenbasis, so ``spread`` directly controls conditioning:
    up to exp(2 spread), which passes the library's definiteness floor
    (lambda_min > 1e-13 lambda_max) once spread exceeds ln(1e13) / 2,
    about 15.  Draws at spread 14 stay inside it by a factor of 7; past
    15, more and more are refused with DomainError by every call that
    reads a matrix (3 of 20 at n = 2 and spread 20).
    """
    n = _count(n, "half-order n")

    def draw(rng):
        G = rng.normal(size=(2 * n, 2 * n))
        Q, R = np.linalg.qr(G)
        Q = Q * np.sign(np.diag(R))
        lam = np.exp(rng.uniform(-spread, spread, size=2 * n))
        A = (Q * lam) @ Q.T
        return 0.5 * (A + A.T)
    return _sample(draw, seed, spread)
