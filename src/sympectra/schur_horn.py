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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .majorization import (MAJORIZATION_TOL, MajorizationReport,
                           _horn_realize, intermediate_vector,
                           weak_supermajorize)
from .means import MeanSpec, evaluate_pairs
from .spectral import _delta, _diag_m, _williamson, validate_pd
from .symplectic import DEFAULT_TOL, check_frame, expm_batch, standard_J

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

# Spread sweep for randomized frame sampling: near-identity through
# far-field regions of the (non-compact) symplectic group.
_SEARCH_SPREADS = (0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class SchurCheckReport:
    """Weak-supermajorization comparison of diag_M(A) against delta(A).

    ``report`` holds the partial-sum slacks; ``mean_dominates_geometric``
    records whether the hypothesis of the forward theorem applies (when
    it does, a false verdict would be a genuine numerical anomaly).
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

    ``mean_dominates_geometric`` is the mean's analytic claim when it has
    one; otherwise a 2000-pair ``dominates_geometric`` sample (seed 0),
    taken on the first call with that ``MeanSpec`` and kept on it.
    """
    A, delta = _delta(A, tol)
    dm = _diag_m(A, mean)
    rep = weak_supermajorize(dm, delta, tol)
    return SchurCheckReport(diag_m=dm, delta=delta, report=rep,
                            mean_dominates_geometric=mean._dominates_geometric)


def horn_symplectic_realize(x, y, mean: MeanSpec,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive definite A with diag_M(A) = x and delta(A) = sorted y.

    Requires x weakly supermajorized by y, both positive.  Pipeline:

    1. z = intermediate_vector(x, y): z <= x, z majorized by y.
    2. U = orthogonal realization of diagonal z with spectrum y;
       C = U diag(y) U^T, so B = C (+) C (block diagonal) has symplectic
       spectrum y and symplectic diagonal entries (z_j, z_j).
    3. For the ratios t = x / z, W = [[diag p, 0], [diag r, diag s]] with
       p = sqrt(t), r = sqrt(t - 1/t), s = 1/p is symplectic, and
       A = W B W^T is the block matrix [[pp^T o C, pr^T o C],
       [rp^T o C, (rr^T + ss^T) o C]] (o the entrywise product), formed
       directly and exactly symmetric.  Congruence preserves delta, and
       each diagonal pair becomes (t_j z_j, t_j z_j) = (x_j, x_j), so
       diag_M(A) = x for every mean through M(a, a) = a.

    x keeps its original coordinate order end to end.  The inputs are
    checked by ``intermediate_vector`` (DomainError), and every stage is
    re-verified: each NumericalError starts with ``stage '<name>'``, one
    of 'intermediate', 'givens', 'assemble', 'spectrum' and 'diag'.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    try:
        z = intermediate_vector(x, y, MAJORIZATION_TOL)
    except NumericalError as exc:
        raise NumericalError(f"stage 'intermediate': {exc}") from exc
    # The private form skips only its precondition: z majorized by y is the
    # intermediate vector's own post-check.
    try:
        U = _horn_realize(z, y, MAJORIZATION_TOL)
    except NumericalError as exc:
        raise NumericalError(f"stage 'givens': {exc}") from exc
    C = (U * y) @ U.T
    C = 0.5 * (C + C.T)

    # z <= x exactly (intermediate_vector's post-check) and z > 0, so
    # x / z >= 1 by monotone division and t - 1/t >= 0.
    t = x / z
    p = np.sqrt(t)
    r = np.sqrt(t - 1.0 / t)
    s = 1.0 / p
    A = np.block([[np.outer(p, p) * C, np.outer(p, r) * C],
                  [np.outer(r, p) * C, (np.outer(r, r) + np.outer(s, s)) * C]])

    try:
        A, got_d = _delta(A, tol, "realized matrix")
    except DomainError as exc:
        raise NumericalError(f"stage 'assemble': {exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"stage 'spectrum': {exc}") from exc
    got_x = _diag_m(A, mean)
    if np.max(np.abs(got_x - x)) > tol * max(1.0, float(np.max(x))):
        raise NumericalError(
            "stage 'diag': realized symplectic diagonal off by "
            f"{np.max(np.abs(got_x - x)):.3e}")
    ys = np.sort(y)
    if np.max(np.abs(got_d - ys)) > tol * max(1.0, float(np.max(ys))):
        raise NumericalError(
            "stage 'spectrum': realized symplectic eigenvalues off by "
            f"{np.max(np.abs(got_d - ys)):.3e}")
    return A


@dataclass(frozen=True)
class KyFanResult:
    """Exact minimizing frame for the k-partial symplectic eigenvalue sum."""

    k: int
    minimizer: np.ndarray
    min_value: float
    delta_partial_sum: float


def kyfan_objective(A, X, mean: MeanSpec) -> float:
    """sum_{j<=k} M(b_jj, b_{k+j,k+j}) for B = X^T A X over a frame X."""
    A, n = validate_pd(A)
    X = check_frame(X)
    if X.shape[0] != 2 * n:
        raise DomainError(
            f"frame has {X.shape[0]} rows, expected {2 * n}")
    return _objective(A, X, mean)


def _objective(A: np.ndarray, X: np.ndarray, mean: MeanSpec) -> float:
    """kyfan_objective for a validated A and a checked frame X."""
    k = X.shape[1] // 2
    d = np.einsum("il,il->l", X, A @ X)
    return float(np.sum(evaluate_pairs(mean, d[:k], d[k:])))


def kyfan_minimizer(A, k: int, mean: MeanSpec,
                    tol: float = DEFAULT_TOL) -> KyFanResult:
    """Frame attaining the minimum: Williamson columns for the k smallest.

    With A = W (D oplus D) W^T, the inverse-transpose V = -J W J is
    symplectic and V^T A V = D oplus D; its columns (1..k, n+1..n+k)
    form a frame whose objective is sum_{j<=k} M(delta_j, delta_j),
    which every mean collapses to the partial eigenvalue sum.  For
    W = [[W11, W12], [W21, W22]], V = [[W22, -W21], [-W12, W11]] exactly,
    so the frame is read off W's quadrants.
    """
    A, fact = _williamson(A, tol)
    n = fact.n
    if not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    W = fact.W
    X = np.block([[W[n:, n:n + k], -W[n:, :k]],
                  [-W[:n, n:n + k], W[:n, :k]]])
    X = check_frame(X, tol)
    value = _objective(A, X, mean)
    return KyFanResult(k=k, minimizer=X, min_value=value,
                       delta_partial_sum=float(np.sum(fact.delta[:k])))


@dataclass(frozen=True)
class KyFanSearchReport:
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


def _symmetric_batch(rng, count: int, order: int, spread: float) -> np.ndarray:
    S = rng.normal(scale=spread, size=(count, order, order))
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def kyfan_search(A, k: int, mean: MeanSpec, budget: int = 10_000, seed=0,
                 tol: float = DEFAULT_TOL) -> KyFanSearchReport:
    """Sample random symplectic frames and scan the objective for violations.

    Each sample takes columns (1..k, n+1..n+k) of exp(J S) for symmetric
    Gaussian S, then right-multiplies by an independent order-2k factor
    of the same form; both steps preserve the frame property.  The spread
    of S sweeps over quartiles of the budget so near-identity and
    far-field frames are both covered.  Deterministic in ``seed``.
    """
    A, delta = _delta(A, tol)
    n = delta.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    target = float(np.sum(delta[:k]))
    threshold = tol * max(1.0, abs(target))

    rng = np.random.default_rng(seed)
    Jn = standard_J(n)
    Jk = standard_J(k)
    cols = np.concatenate([np.arange(k), n + np.arange(k)])

    counts = [budget // 4] * 4
    for i in range(budget - sum(counts)):
        counts[i] += 1

    best_value = np.inf
    best_frame = None
    violations = 0
    total = 0
    for spread, count in zip(_SEARCH_SPREADS, counts):
        if count == 0:
            continue
        Ws = expm_batch(Jn @ _symmetric_batch(rng, count, 2 * n, spread))
        Xs = Ws[:, :, cols]
        Ts = expm_batch(Jk @ _symmetric_batch(rng, count, 2 * k, spread))
        Xs = Xs @ Ts
        d = np.einsum("mil,mil->ml", Xs, np.matmul(A, Xs))
        vals = evaluate_pairs(mean, d[:, :k].ravel(), d[:, k:].ravel())
        objectives = vals.reshape(count, k).sum(axis=1)
        total += count
        violations += int(np.sum(objectives < target - threshold))
        i = int(np.argmin(objectives))
        if objectives[i] < best_value:
            best_value = float(objectives[i])
            best_frame = Xs[i]

    return KyFanSearchReport(k=k, best_value=best_value, best_frame=best_frame,
                             violations=violations, n_samples=total,
                             delta_partial_sum=target, threshold=threshold)
