"""Vector preorders and inverse problems on diagonals.

Throughout, arrows mean ascending rearrangement: x is weakly
supermajorized by y when every ascending partial sum of x dominates the
matching one of y; majorization additionally forces equal totals.  Both
comparisons are permutation invariant and hold the partial sums against
tol * (||x||_1 + ||y||_1), a tolerance relative to the vectors compared.

Scaling x and y by one factor changes neither relation, so every call
runs on the unit pair x / c, y / c, c the power of two of the largest
|x_i|, |y_i| (the unit-form rule of ``symplectic``), where nothing summed
overflows.  A slack whose c multiple overflows raises NumericalError,
but a subnormal slack is kept: it is rounding around a verdict already
decided, and the reported ``threshold`` is a tolerance, not an answer,
so it is not checked.

``intermediate_vector`` interpolates a majorized vector below x, and
``_horn_realize`` builds the orthogonal U that puts a prescribed
diagonal on a matrix with prescribed spectrum; both feed the symplectic
realization.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, _check_tol
from .symplectic import _as_vector, _fro, _pow2_scale, _scaled

__all__ = [
    "MAJORIZATION_TOL",
    "MajorizationReport",
    "weak_supermajorize",
    "majorize",
    "intermediate_vector",
]

MAJORIZATION_TOL = 1e-10


def _read_pair(x, y) -> tuple[np.ndarray, np.ndarray, float]:
    """Two vectors of one length as ``_as_vector`` reads them, and the
    power of two c of the pair."""
    (x, xmax), (y, ymax) = _as_vector(x), _as_vector(y)
    if x.shape != y.shape:
        raise DomainError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x, y, _pow2_scale(max(xmax, ymax))


class MajorizationReport(NamedTuple):
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


def _prefix_compare(kind: str, x: np.ndarray, y: np.ndarray, tol: float):
    """(slacks, threshold, verdict) of x against y, a unit pair: ascending
    prefix sums held to tol (||x||_1 + ||y||_1); ``kind`` "majorize" also
    holds the total gap to the threshold."""
    tol = _check_tol(tol)
    slacks = np.sort(x).cumsum() - np.sort(y).cumsum()
    threshold = tol * float(np.abs(x).sum() + np.abs(y).sum())
    verdict = bool(slacks.min() >= -threshold) and (
        kind != "majorize" or abs(float(slacks[-1])) <= threshold)
    return slacks, threshold, verdict


def _report(kind: str, x: np.ndarray, y: np.ndarray, c: float,
            tol: float) -> MajorizationReport:
    """The report on c x against c y, decided on their unit pair x, y."""
    slacks, threshold, verdict = _prefix_compare(kind, x, y, tol)
    slacks = _scaled(c, slacks, "partial-sum slack")
    return MajorizationReport(kind, slacks, float(slacks[-1]), verdict,
                              c * threshold)


def weak_supermajorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x weakly supermajorized by y (ascending prefix dominance)."""
    x, y, c = _read_pair(x, y)
    return _report("weak_super", x / c, y / c, c, tol)


def majorize(x, y, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Test x majorized by y: prefix dominance plus equal totals."""
    x, y, c = _read_pair(x, y)
    return _report("majorize", x / c, y / c, c, tol)


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
    return _intermediate(*_read_pair(x, y), tol)


def _intermediate(x0: np.ndarray, y0: np.ndarray, scale: float,
                  tol: float) -> np.ndarray:
    """``intermediate_vector`` of the vectors and scale ``_read_pair`` read."""
    if not (x0.min() > 0 and y0.min() > 0):
        raise DomainError("intermediate_vector needs strictly positive vectors")
    x, y = x0 / scale, y0 / scale
    n = x.shape[0]
    target = float(y.sum())
    xs = np.sort(x).tolist()
    prefix = 0.0
    for m in range(n):  # the last level c is the cap when none breaks
        c = (target - prefix) / (n - m)
        if c <= xs[m]:
            break
        prefix += xs[m]

    slacks, _, verdict = _prefix_compare("majorize", np.minimum(x, c), y, tol)
    if not verdict:
        k = int(np.argmin(slacks)) + 1
        raise DomainError(
            "x is not weakly supermajorized by y (capped x: worst slack "
            f"{scale * float(slacks.min()):.3e} at k={k}, "
            f"total gap {scale * float(slacks[-1]):.3e})")
    return np.minimum(x0, scale * c)


def _horn_realize(z: np.ndarray, y: np.ndarray,
                  tol: float) -> tuple[np.ndarray, float]:
    """Orthogonal U with diag(U diag(y) U^T) = z and spectrum y, and the
    computed ||U^T U - I||_F of its orthogonality check.

    For a unit pair of float vectors already known to satisfy z majorized
    by y at ``tol``; the orthogonality and diagonal checks still run.
    Built as a chain of at most n-1 Givens rotations: targets are placed
    in ascending order, each time rotating the pair of current diagonal
    values that straddles the target (the largest value not exceeding it
    and its successor), which pins the target exactly and leaves the
    untouched positions diagonal.  Each slot's row starts as the unit
    vector of its y coordinate, and each retiring row is written to its z
    coordinate, so U comes out in the caller's orders for z and y.
    """
    n = z.shape[0]
    z_order = z.argsort(kind="stable")
    y_order = y.argsort(kind="stable")
    zs = z[z_order].tolist()
    rows = z_order.tolist()

    # Working basis: slot t starts with the t-th smallest y value.  Plain
    # float lists, so each bisection touches no array conversion.
    vals = y[y_order].tolist()
    slots = list(range(n))
    basis = np.eye(n)[y_order]
    U = np.empty((n, n))

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
            c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        # Rotate rows p and q: slot p takes the value d and retires to the
        # row of U for z's t-th smallest coordinate, and slot q carries the
        # leftover so the running spectrum is unchanged.
        rp, rq = basis[p], basis[q]
        U[rows[t]] = c * rp + s * rq
        basis[q] = -s * rp + c * rq
        leftover = lam_p + lam_q - d
        del vals[i:i + 2], slots[i:i + 2]
        j = bisect_left(vals, leftover)
        vals.insert(j, leftover)
        slots.insert(j, q)
    U[rows[n - 1]] = basis[slots[0]]

    gram = U.T @ U
    gram.flat[::n + 1] -= 1.0
    ortho = _fro(gram)
    diag_err = float(np.abs(np.einsum("ij,j,ij->i", U, y, U) - z).max())
    # Orthogonality has no units; the diagonal scales with z and y.
    size = float(np.abs(z).sum() + np.abs(y).sum())
    if ortho > tol or diag_err > tol * size:
        raise NumericalError(
            "diagonal realization failed verification "
            f"(orthogonality {ortho:.3e}, diagonal error {diag_err:.3e})")
    return U, ortho
