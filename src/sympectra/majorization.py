"""Vector preorders and inverse problems on diagonals.

Throughout, arrows mean ascending rearrangement: x is weakly
supermajorized by y when every ascending partial sum of x dominates the
matching one of y; majorization additionally forces equal totals.  Both
comparisons are permutation invariant and use an absolute tolerance on
partial sums scaled by max(1, ||x||_1 + ||y||_1).

The two constructions here feed the symplectic realization machinery:
``intermediate_vector`` interpolates a majorized vector below x, and
``horn_realize`` builds an orthogonal U putting a prescribed diagonal on
a matrix with prescribed spectrum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "MAJORIZATION_TOL",
    "MajorizationReport",
    "weak_supermajorize",
    "majorize",
    "intermediate_vector",
    "horn_realize",
]

MAJORIZATION_TOL = 1e-10


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.ndim != 1 or y.ndim != 1:
        raise DomainError("majorization comparisons need 1-d vectors")
    if x.shape != y.shape:
        raise DomainError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] == 0:
        raise DomainError("majorization comparisons need n >= 1")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("vectors must be finite")
    return x, y


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of a partial-sum comparison.

    ``k_slacks[k-1]`` is the ascending k-prefix sum of x minus that of y;
    ``total_gap`` is the full-sum difference (the last slack).  The
    verdict applies ``threshold`` = tol * max(1, ||x||_1 + ||y||_1).
    """

    kind: str
    k_slacks: np.ndarray
    total_gap: float
    verdict: bool
    threshold: float


def _prefix_slacks(x, y, tol: float) -> tuple[np.ndarray, float]:
    """Ascending prefix-sum slacks of x against y and the verdict threshold."""
    x, y = _pair(x, y)
    slacks = np.cumsum(np.sort(x)) - np.cumsum(np.sort(y))
    threshold = tol * max(1.0, float(np.abs(x).sum() + np.abs(y).sum()))
    return slacks, threshold


def weak_supermajorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x weakly supermajorized by y (ascending prefix dominance)."""
    slacks, threshold = _prefix_slacks(x, y, tol)
    verdict = bool(np.all(slacks >= -threshold))
    return MajorizationReport("weak_super", slacks, float(slacks[-1]),
                              verdict, threshold)


def majorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x majorized by y: prefix dominance plus equal totals."""
    slacks, threshold = _prefix_slacks(x, y, tol)
    total_gap = float(slacks[-1])
    verdict = bool(np.all(slacks >= -threshold)) and abs(total_gap) <= threshold
    return MajorizationReport("majorize", slacks, total_gap, verdict, threshold)


def intermediate_vector(x, y, tol: float = MAJORIZATION_TOL) -> np.ndarray:
    """Vector z with z <= x componentwise and z majorized by y.

    Requires x weakly supermajorized by y with y (and x) positive; then
    capping x at the level c solving sum_j min(x_j, c) = sum_j y_j yields
    such a z, positive and in the original coordinate order.  Both
    post-conditions are re-verified before returning; a failure raises
    NumericalError rather than handing back a wrong z.
    """
    x, y = _pair(x, y)
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("intermediate_vector needs strictly positive vectors")
    pre = weak_supermajorize(x, y, tol)
    if not pre.verdict:
        k = int(np.argmin(pre.k_slacks)) + 1
        raise DomainError(
            "weak supermajorization precondition fails "
            f"(worst slack {pre.k_slacks.min():.3e} at k={k})")

    n = x.shape[0]
    target = float(np.sum(y))
    xs = np.sort(x)
    prefix = 0.0
    z = None
    for m in range(n):
        c = (target - prefix) / (n - m)
        if c <= xs[m] or m == n - 1:
            z = np.minimum(x, c)
            break
        prefix += xs[m]
    assert z is not None

    post = majorize(z, y, tol)
    if not post.verdict or np.any(z > x) or np.any(z <= 0):
        raise NumericalError(
            "intermediate vector construction failed verification "
            f"(majorize verdict {post.verdict}, total gap {post.total_gap:.3e})")
    return z


def horn_realize(z, y, tol: float = MAJORIZATION_TOL) -> np.ndarray:
    """Orthogonal U with diag(U diag(y) U^T) = z and spectrum y.

    Requires z majorized by y.  Built as a chain of at most n-1 Givens
    rotations: targets are placed in ascending order, each time rotating
    the pair of current diagonal values that straddles the target (the
    largest value not exceeding it and its successor), which pins the
    target exactly and leaves the untouched positions diagonal.  Row
    permutations then restore the caller's coordinate orders for z and y.
    """
    z, y = _pair(z, y)
    pre = majorize(z, y, tol)
    if not pre.verdict:
        raise DomainError(
            "majorization precondition fails (worst slack "
            f"{pre.k_slacks.min():.3e}, total gap {pre.total_gap:.3e})")
    return _horn_realize(z, y, tol)


def _horn_realize(z: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """horn_realize for float vectors already known to satisfy z majorized
    by y at ``tol``; the orthogonality and diagonal checks still run."""
    n = z.shape[0]
    z_order = np.argsort(z, kind="stable")
    y_order = np.argsort(y, kind="stable")
    zs = z[z_order].tolist()

    # Working basis: slot t starts with the t-th smallest y value.  Plain
    # float lists, so each bisection touches no array conversion.
    vals = y[y_order].tolist()
    slots = list(range(n))
    U = np.eye(n)
    placed_slot = np.empty(n, dtype=int)

    for t in range(n - 1):
        d = zs[t]
        # Adjacent straddling pair: the largest current value <= d and its
        # successor.  On an exact tie take the leftmost equal value, so
        # already-realized inputs come back as the identity; clamp into
        # range when roundoff pushes d past an end.
        left = bisect_left(vals, d)
        if left < len(vals) and vals[left] == d:
            i = left
        else:
            i = bisect_right(vals, d) - 1
        i = min(max(i, 0), len(vals) - 2)
        lam_p, lam_q = vals[i], vals[i + 1]
        p, q = slots[i], slots[i + 1]
        gap = lam_q - lam_p
        if gap <= 0:
            c, s = 1.0, 0.0
        else:
            c2 = min(max((lam_q - d) / gap, 0.0), 1.0)
            c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
        # Rotate rows p and q of U: slot p takes the value d and retires,
        # slot q carries the leftover so the running spectrum is unchanged.
        rp, rq = U[p].copy(), U[q].copy()
        U[p] = c * rp + s * rq
        U[q] = -s * rp + c * rq
        leftover = lam_p + lam_q - d
        placed_slot[t] = p
        del vals[i:i + 2], slots[i:i + 2]
        j = bisect_left(vals, leftover)
        vals.insert(j, leftover)
        slots.insert(j, q)
    placed_slot[n - 1] = slots[0]

    # Undo the ascending orderings: rows land back on the caller's z
    # coordinates, columns on the caller's y coordinates.
    row_of = np.empty(n, dtype=int)
    row_of[z_order] = placed_slot
    U = U[row_of]
    U = U[:, np.argsort(y_order)]

    ortho = float(np.linalg.norm(U.T @ U - np.eye(n)))
    diag_err = float(np.max(np.abs(np.einsum("ij,j,ij->i", U, y, U) - z)))
    threshold = tol * max(1.0, float(np.abs(z).sum() + np.abs(y).sum()))
    if ortho > threshold or diag_err > threshold:
        raise NumericalError(
            "diagonal realization failed verification "
            f"(orthogonality {ortho:.3e}, diagonal error {diag_err:.3e})")
    return U
