"""Symplectic analogues of the Schur and Horn diagonal theorems.

Three capabilities built on the spectral and majorization layers:

* ``schur_check``: the forward direction. For a mean M dominating the
  geometric mean, the mean-indexed symplectic diagonal of a positive
  definite A is weakly supermajorized by the symplectic eigenvalues.
* ``horn_symplectic_realize``: the converse, constructive and valid for
  every mean. Builds A with prescribed diag_M and prescribed symplectic
  spectrum through an intermediate majorized vector z, an orthogonal
  diagonal realization C with diagonal z, and the closed-form symplectic
  congruence of C (+) C that scales each diagonal pair (z_j, z_j) up to
  (x_j, x_j).
* Ky Fan minimum principle: the ascending k-partial sum of symplectic
  eigenvalues equals the minimum of sum_j M(b_jj, b_{k+j,k+j}) over
  B = X^T A X with X a symplectic frame; exact minimizer from the
  Williamson factor, randomized lower-bound searches for verification.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, _check_tol
from .majorization import (MAJORIZATION_TOL, MajorizationReport,
                           _horn_realize, _intermediate, _read_pair,
                           _report)
from .means import MeanSpec
from .spectral import (_check_definite, _delta, _diag_m, _factor, _factored,
                       _symmetrized, _williamson)
from .symplectic import (DEFAULT_TOL, _as_frame, _as_square_even, _count,
                         _euler_frames, _in_units, _require_frame, _rng)

__all__ = [
    "SchurCheckReport",
    "KyFanResult",
    "KyFanSearchReport",
    "schur_check",
    "horn_symplectic_realize",
    "kyfan_minimizer",
    "kyfan_objective",
    "kyfan_search",
]

# Spreads of the Euler-form frames, one per quartile of a search's budget:
# near-identity rotations and squeezes e^r with |r| ~ 0.1 out to far-field
# frames with |r| ~ 2.
_SEARCH_SPREADS = (0.1, 0.5, 1.0, 2.0)
# Entries of the n-by-n unitaries in one batch of a search's frames, so
# that memory does not grow with the budget.
_BATCH_ENTRIES = 2 ** 16


class SchurCheckReport(NamedTuple):
    """Weak-supermajorization comparison of diag_M(A) against delta(A).

    ``report`` holds the partial-sum slacks; ``mean_dominates_geometric``
    records whether the hypothesis of the forward theorem applies (when
    it does, a false verdict would be a genuine numerical anomaly): a
    built-in mean's analytic claim, else its vet's dominance verdict.
    """

    diag_m: np.ndarray
    delta: np.ndarray
    report: MajorizationReport
    mean_dominates_geometric: bool

    @property
    def verdict(self) -> bool:
        return self.report.verdict


def schur_check(A, mean: MeanSpec, tol: float = DEFAULT_TOL) -> SchurCheckReport:
    """Compare the mean-indexed diagonal of A against delta(A) under <=^w.

    A mean that is not built in is vetted as ``MeanSpec`` describes, and
    ``mean_dominates_geometric`` is read from the same report.  The
    comparison is ``weak_supermajorize``'s, decided on the unit form's
    diag_M and delta.
    """
    U, c, delta = _delta(A, tol)
    delta_a = _in_units(c, delta)
    dm = _diag_m(U.diagonal(), mean)
    dm_a = _in_units(c, dm, "symplectic diagonal")
    return SchurCheckReport(diag_m=dm_a, delta=delta_a,
                            report=_report("weak_super", dm, delta, c, tol),
                            mean_dominates_geometric=mean._dominates_geometric)


def horn_symplectic_realize(x, y, mean: MeanSpec,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive definite A with diag_M(A) = x and delta(A) = sorted y.

    Requires x weakly supermajorized by y, both positive.  Pipeline:

    1. z = intermediate_vector(x, y): x capped at a level c > 0, so
       0 < z <= x, and z majorized by y.
    2. U = orthogonal realization of diagonal z with spectrum y;
       C = U diag(y) U^T, so B = C (+) C (block diagonal) has symplectic
       spectrum y and symplectic diagonal entries (z_j, z_j).
    3. For the ratios t = x / z, W = [[diag p, 0], [diag r, diag s]] with
       p = sqrt(t), r = sqrt(t - 1/t), s = 1/p is symplectic, and
       A = W B W^T is the block matrix [[pp^T o C, pr^T o C],
       [rp^T o C, (rr^T + ss^T) o C]] (o the entrywise product), formed
       directly and exactly symmetric.  Congruence preserves delta, and
       each diagonal pair becomes (t_j z_j, t_j z_j) = (x_j, x_j), so
       diag_M(A) = x for every mean through M(a, a) = a, which the vet
       of a custom mean checks (betweenness forces it).

    x keeps its original coordinate order end to end.  Admissibility is
    the one check of ``intermediate_vector`` (DomainError).  Steps 2 and
    3 and their checks run on the unit pair x / c, y / c of
    ``majorization``, and the result is c times that A.  Every later
    stage is re-verified, and each NumericalError starts with
    ``stage '<name>'``, one of 'givens' (the realization of z),
    'assemble' (A not positive definite, or out of range: z is subnormal,
    or c A's diagonal overflows or is subnormal), 'spectrum' and 'diag'.
    Admissibility and the Givens check hold their sums against
    ``MAJORIZATION_TOL``; ``tol`` governs the last three stages.  The
    realized matrix's conditioning grows like (x/z)^2, so targets with
    large x/z are refused at 'spectrum': at x = [1e6, 1e6], y = [1, 2]
    the exact symplectic eigenvalues of the matrix formed in doubles
    miss y by 1.1e-4, 5.4e-5 of max y.
    """
    _check_tol(tol)
    x, y, c = _read_pair(x, y)
    z = _intermediate(x, y, c, MAJORIZATION_TOL)
    # The rest runs on the unit pair of x and y, whose scale c also gave z.
    # z / c is exact unless z is subnormal, and then so is A's diagonal (an
    # uncapped z_j = x_j) or its spectrum (a capped z_j >= min y).
    x, y = x / c, y / c
    z = _in_units(1.0, z, "stage 'assemble': realized matrix") / c
    # The private form skips only its precondition: z majorized by y is the
    # intermediate vector's own admissibility check.
    try:
        U = _horn_realize(z, y, MAJORIZATION_TOL)
    except NumericalError as exc:
        raise NumericalError(f"stage 'givens': {exc}") from exc
    C = (U * y) @ U.T
    C = 0.5 * (C + C.T)

    # z = x capped at a level > 0, so z <= x exactly, and x / z >= 1 by
    # monotone division and t - 1/t >= 0.
    t = x / z
    p = np.sqrt(t)
    r = np.sqrt(t - 1.0 / t)
    s = 1.0 / p
    # Each n-by-n block of T = uu^T + (0 oplus ss^T), u = [p; r], times C.
    n = x.shape[0]
    u = np.concatenate([p, r])
    T = u[:, None] * u
    T[n:, n:] += s[:, None] * s
    A = (T.reshape(2, n, 2, n) * C[:, None, :]).reshape(2 * n, 2 * n)

    # A is exactly symmetric (T and C are), so it is the matrix verified,
    # by the delta route below the reuse entry: no later call reads A.
    try:
        U, scale, fro, _, K = _factored(*_as_square_even(A), tol)
        got_d = _in_units(scale, _factor(U, scale, fro, K, tol, False)[0])
    except DomainError as exc:
        # The matrix reader's every message starts with its subject, "matrix".
        raise NumericalError(f"stage 'assemble': realized {exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"stage 'spectrum': {exc}") from exc
    diag = A.diagonal()
    err = np.abs(_diag_m(diag, mean) - x).max()
    if not err <= tol * x.max():  # NaN fails too
        raise NumericalError(
            f"stage 'diag': realized symplectic diagonal off by "
            f"{c * float(err):.3e}")
    ys = np.sort(y)
    err = np.abs(got_d - ys).max()
    if not err <= tol * ys[-1]:
        raise NumericalError(
            f"stage 'spectrum': realized symplectic eigenvalues off by "
            f"{c * float(err):.3e}")
    # |a_ij| <= sqrt(a_ii a_jj), so A's diagonal bounds every entry's range.
    _in_units(c, diag, "stage 'assemble': realized matrix")
    return c * A


class KyFanResult(NamedTuple):
    """Exact minimizing frame for the k-partial symplectic eigenvalue sum."""

    k: int
    minimizer: np.ndarray
    min_value: float
    delta_partial_sum: float


def kyfan_objective(A, X, mean: MeanSpec) -> float:
    """sum_{j<=k} M(b_jj, b_{k+j,k+j}) for B = X^T A X over a frame X.

    Scored on A's unit form, as every mean-indexed diagonal is; A has
    no spectrum here to certify definiteness, so the exact floor check
    runs.  A NaN or out-of-range value raises NumericalError, as does a
    frame that carries diag(X^T U X) out of the double range."""
    U, c, _ = _symmetrized(*_as_square_even(A))
    _check_definite(U, c)
    X = _as_frame(X)
    _require_frame(X, DEFAULT_TOL)
    if X.shape[0] != U.shape[0]:
        raise DomainError(f"frame has {X.shape[0]} rows, expected {U.shape[0]}")
    return float(_in_units(c, _objective(U, X, mean), "Ky Fan value"))


def _objective(U: np.ndarray, X: np.ndarray, mean: MeanSpec):
    """kyfan_objective on a unit form U, unscaled, batched over X's leading axes."""
    d = np.einsum("...il,...il->...l", X, U @ X)
    # Positive in exact arithmetic; a frame can carry it out of the double
    # range, which is a range failure, not a mean argument out of domain.
    if not (d.min() > 0 and d.max() < np.inf):
        raise NumericalError("Ky Fan objective is out of range: diag(X^T U X) "
                             "underflows or is not finite")
    out = _diag_m(d, mean).sum(-1)
    if not np.isfinite(out).all():
        raise NumericalError("Ky Fan objective is not finite")
    return out


def kyfan_minimizer(A, k: int, mean: MeanSpec,
                    tol: float = DEFAULT_TOL) -> KyFanResult:
    """Frame attaining the minimum: Williamson columns for the k smallest.

    With A = W (D oplus D) W^T, the inverse-transpose V = -J W J is
    symplectic and V^T A V = D oplus D; its columns (1..k, n+1..n+k)
    form a frame whose objective is sum_{j<=k} M(delta_j, delta_j),
    which every mean collapses to the partial eigenvalue sum.  For
    W = [[W11, W12], [W21, W22]], V = [[W22, -W21], [-W12, W11]] exactly,
    so the frame is read off W's quadrants.  Frame and value are taken on
    A's unit form (see ``symplectic``).
    """
    U, c, fact = _williamson(A, tol)
    n = fact.n
    k = _count(k, "k", n)
    W = fact.W
    X = np.empty((2 * n, 2 * k))
    X[:n, :k], X[:n, k:] = W[n:, n:n + k], -W[n:, :k]
    X[n:, :k], X[n:, k:] = -W[:n, n:n + k], W[:n, :k]
    _require_frame(X, tol)
    value = float(_in_units(c, _objective(U, X, mean), "Ky Fan value"))
    return KyFanResult(k=k, minimizer=X, min_value=value,
                       delta_partial_sum=float(fact.delta[:k].sum()))


class KyFanSearchReport(NamedTuple):
    """Randomized lower-bound scan of the Ky Fan objective.

    ``violations`` counts sampled objectives below the partial eigenvalue
    sum minus the threshold; expected zero whenever the mean dominates
    the geometric mean.
    """

    k: int
    best_value: float
    best_frame: np.ndarray
    violations: int
    n_samples: int
    delta_partial_sum: float
    threshold: float


def kyfan_search(A, k: int, mean: MeanSpec, budget: int = 10_000, seed=0,
                 tol: float = DEFAULT_TOL) -> KyFanSearchReport:
    """Sample random symplectic frames and scan the objective for violations.

    Each sample is an Euler-form frame O(U) (e^r oplus e^-r) O(V), from
    the sampler behind ``random_symplectic``, and is scored with
    ``kyfan_objective``'s formula.  The spread of U, V and r sweeps over
    quartiles of the budget, covering near-identity and far-field frames.
    Frames are drawn and compared on A's unit form (see ``symplectic``).
    ``threshold`` is a tolerance, not an answer, so it is c times the
    unit one with no range check.  Deterministic in ``seed``.

    Memory: each quarter of the budget is drawn in batches of
    max(1, 2^16 // n^2) frames, so the n-by-n complex unitaries of one
    batch hold at most 2^16 entries (1 MiB) for n <= 256, and one
    frame's beyond.  The peak does not grow with the budget, and
    ``best_frame`` is a copy, so the report keeps no batch alive.
    """
    U, c, delta = _delta(A, tol)
    n = delta.shape[0]
    k = _count(k, "k", n)
    budget = _count(budget, "budget")
    target = float(np.sum(delta[:k]))
    threshold = tol * target

    rng = _rng(seed)
    counts = [budget // 4 + (i < budget % 4) for i in range(4)]
    batch = max(1, _BATCH_ENTRIES // n ** 2)

    best_value = np.inf
    best_frame = None
    violations = 0
    for spread, count in zip(_SEARCH_SPREADS, counts):
        for start in range(0, count, batch):
            Xs = _euler_frames(rng, min(batch, count - start), n, k, spread)
            objectives = _objective(U, Xs, mean)
            violations += int(np.sum(objectives < target - threshold))
            i = int(np.argmin(objectives))
            if objectives[i] < best_value:
                best_value = float(objectives[i])
                best_frame = Xs[i].copy()

    return KyFanSearchReport(k=k, best_value=_in_units(c, best_value, "Ky Fan value"),
                             best_frame=best_frame, violations=violations,
                             n_samples=budget, delta_partial_sum=_in_units(c, target),
                             threshold=c * threshold)
