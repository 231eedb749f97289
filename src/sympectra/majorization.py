"""Vector preorders and inverse problems on diagonals.

Throughout, arrows mean ascending rearrangement: x is weakly
supermajorized by y when every ascending partial sum of x dominates the
matching one of y; majorization additionally forces equal totals.  Both
comparisons are permutation invariant and hold the partial sums against
tol * (||x||_1 + ||y||_1), a tolerance relative to the vectors compared.

Scaling x and y by one factor changes neither relation, so every call
runs on the unit pair x / c, y / c, c the largest power of two <= the
largest |x_i|, |y_i|.  Dividing by c is exact and nothing summed from
the pair overflows.  Verdicts are decided on the unit pair; slacks and
vectors are reported as c times the unit ones, and a slack whose c
multiple overflows raises NumericalError.  A subnormal slack is kept:
it is rounding around a verdict already decided, and the reported
``threshold`` is a tolerance, not an answer, so it is not checked.

``intermediate_vector`` interpolates a majorized vector below x, and
``_horn_realize`` builds the orthogonal U that puts a prescribed
diagonal on a matrix with prescribed spectrum; both feed the symplectic
realization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, _check_tol
from .symplectic import _as_vector, _pow2_scale, _scaled

__all__ = [
    "MAJORIZATION_TOL",
    "MajorizationReport",
    "weak_supermajorize",
    "majorize",
    "intermediate_vector",
]

MAJORIZATION_TOL = 1e-10


def _pair(x, y) -> tuple[np.ndarray, np.ndarray, float]:
    """The unit pair (x / c, y / c) of two vectors of one length, and c."""
    x, y = _as_vector(x), _as_vector(y)
    if x.shape != y.shape:
        raise DomainError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    c = _pow2_scale(np.concatenate((x, y)))
    return x / c, y / c, c


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of a partial-sum comparison.

    ``k_slacks[k-1]`` is the ascending k-prefix sum of x minus that of y;
    ``total_gap`` is the full-sum difference (the last slack).  The
    verdict applies ``threshold`` = tol * (||x||_1 + ||y||_1).
    """

    kind: str
    k_slacks: np.ndarray
    total_gap: float
    verdict: bool
    threshold: float


def _compare(kind: str, x, y, tol: float) -> MajorizationReport:
    """Prefix-sum comparison of x against y on their unit pair; ``kind``
    "majorize" also holds the total gap to the threshold."""
    _check_tol(tol)
    x, y, c = _pair(x, y)
    slacks = np.cumsum(np.sort(x)) - np.cumsum(np.sort(y))
    threshold = tol * float(np.abs(x).sum() + np.abs(y).sum())
    verdict = bool((slacks >= -threshold).all()) and (
        kind != "majorize" or abs(float(slacks[-1])) <= threshold)
    slacks = _scaled(c, slacks, "partial-sum slack")
    return MajorizationReport(kind, slacks, float(slacks[-1]), verdict,
                              c * threshold)


def weak_supermajorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x weakly supermajorized by y (ascending prefix dominance)."""
    return _compare("weak_super", x, y, tol)


def majorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x majorized by y: prefix dominance plus equal totals."""
    return _compare("majorize", x, y, tol)


def intermediate_vector(x, y, tol: float = MAJORIZATION_TOL) -> np.ndarray:
    """Vector z with z <= x componentwise and z majorized by y.

    x and y must be positive.  z caps x at the level c solving
    sum_j min(x_j, c) = sum_j y_j, in x's coordinate order; c > 0, since
    each step of the search for c leaves part of the positive sum of y
    unspent.  x is weakly supermajorized by y exactly when this z is
    majorized by y, so that one comparison decides admissibility: a
    failure raises DomainError naming the worst slack, its k and the
    total gap.  The level and the comparison come from the unit pair;
    z = min(x, level) is formed in the caller's units, so a subnormal x_j
    that the unit pair rounds is kept as it is.
    """
    x0, y0 = _as_vector(x), _as_vector(y)
    x, y, scale = _pair(x0, y0)
    if not ((x0 > 0).all() and (y0 > 0).all()):
        raise DomainError("intermediate_vector needs strictly positive vectors")
    n = x.shape[0]
    target = float(y.sum())
    xs = np.sort(x).tolist()
    prefix = 0.0
    for m in range(n):  # the last level c is the cap when none breaks
        c = (target - prefix) / (n - m)
        if c <= xs[m]:
            break
        prefix += xs[m]

    rep = majorize(np.minimum(x, c), y, tol)
    if not rep.verdict:
        k = int(np.argmin(rep.k_slacks)) + 1
        raise DomainError(
            "x is not weakly supermajorized by y (capped x: worst slack "
            f"{scale * float(rep.k_slacks.min()):.3e} at k={k}, "
            f"total gap {scale * rep.total_gap:.3e})")
    return np.minimum(x0, scale * c)


def _horn_realize(z: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Orthogonal U with diag(U diag(y) U^T) = z and spectrum y.

    For a unit pair of float vectors already known to satisfy z majorized
    by y at ``tol``; the orthogonality and diagonal checks still run.
    Built as a chain of at most n-1 Givens rotations: targets are placed
    in ascending order, each time rotating the pair of current diagonal
    values that straddles the target (the largest value not exceeding it
    and its successor), which pins the target exactly and leaves the
    untouched positions diagonal.  Row permutations then restore the
    caller's coordinate orders for z and y.
    """
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
        i = left if left < len(vals) and vals[left] == d else left - 1
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
    diag_err = float(np.abs(np.einsum("ij,j,ij->i", U, y, U) - z).max())
    # Orthogonality has no units; the diagonal scales with z and y.
    size = float(np.abs(z).sum() + np.abs(y).sum())
    if ortho > tol or diag_err > tol * size:
        raise NumericalError(
            "diagonal realization failed verification "
            f"(orthogonality {ortho:.3e}, diagonal error {diag_err:.3e})")
    return U
