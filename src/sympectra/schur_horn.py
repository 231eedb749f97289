"""Symplectic analogues of the Schur and Horn diagonal theorems.

Three capabilities built on the spectral and majorization layers:

* ``schur_check``: the forward direction. For a mean M dominating the
  geometric mean, the mean-indexed symplectic diagonal of a positive
  definite A is weakly supermajorized by the symplectic eigenvalues.
* ``horn_symplectic_realize``: the converse, constructive and valid for
  every mean. Builds A with prescribed diag_M and prescribed symplectic
  spectrum through an intermediate majorized vector, an orthogonal
  diagonal realization, and per-coordinate SL(2) scalings.
* Ky Fan minimum principle: the ascending k-partial sum of symplectic
  eigenvalues equals the minimum of sum_j M(b_jj, b_{k+j,k+j}) over
  B = X^T A X with X a symplectic frame; exact minimizer from the
  Williamson factor, randomized lower-bound searches for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .majorization import (MajorizationReport, horn_realize,
                           intermediate_vector, weak_supermajorize)
from .means import MeanSpec, dominates_geometric, evaluate, evaluate_pairs
from .spectral import _delta, _diag_m, _williamson, validate_pd
from .symplectic import (DEFAULT_TOL, check_frame, expanding_sum, expm_batch,
                         standard_J)

__all__ = [
    "SchurCheckReport",
    "KyFanResult",
    "KyFanSearchReport",
    "CrosscheckReport",
    "schur_check",
    "sl2_for_ratio",
    "horn_symplectic_realize",
    "kyfan_minimizer",
    "kyfan_objective",
    "kyfan_search",
    "equivalence_crosscheck",
]

# Spread sweep for randomized frame sampling: near-identity through
# far-field regions of the (non-compact) symplectic group.
_SEARCH_SPREADS = (0.1, 0.5, 1.0, 2.0)

# Ratios this far below 1 are treated as floating-point slack from the
# intermediate-vector construction and clamped.
_RATIO_SLACK = 1e-12


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


def _mean_dominates(mean: MeanSpec) -> bool:
    if mean.dominates_geometric_claim is not None:
        return bool(mean.dominates_geometric_claim)
    return dominates_geometric(mean, sample_budget=2000, seed=0).holds


def schur_check(A, mean: MeanSpec, tol: float = DEFAULT_TOL) -> SchurCheckReport:
    """Compare the mean-indexed diagonal of A against delta(A) under <=^w."""
    A, _ = validate_pd(A)
    dm = _diag_m(A, mean)
    delta = _delta(A, tol)
    rep = weak_supermajorize(dm, delta, tol)
    return SchurCheckReport(diag_m=dm, delta=delta, report=rep,
                            mean_dominates_geometric=_mean_dominates(mean))


def sl2_for_ratio(mean: MeanSpec, t: float) -> tuple[float, float, float, float]:
    """Determinant-one (p, q, r, s) with M(p^2+q^2, r^2+s^2) = t, t >= 1.

    Closed form p = sqrt(t), q = 0, r = sqrt(t - 1/t), s = 1/sqrt(t):
    both squared row norms equal t, so any mean hits the target exactly
    through M(t, t) = t; no root finding and no mean-specific path.
    """
    t = float(t)
    if not np.isfinite(t) or t < 1.0:
        raise DomainError(f"ratio target must be >= 1, got {t}")
    p = np.sqrt(t)
    q = 0.0
    r = np.sqrt(max(t - 1.0 / t, 0.0))
    s = 1.0 / p
    achieved = evaluate(mean, p * p + q * q, r * r + s * s)
    if abs(achieved - t) > 1e-10 * max(1.0, t):
        raise NumericalError(
            f"ratio target {t} not achieved (got {achieved}); "
            "the evaluator appears to violate M(a, a) = a")
    return float(p), q, float(r), float(s)


def horn_symplectic_realize(x, y, mean: MeanSpec,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive definite A with diag_M(A) = x and delta(A) = sorted y.

    Requires x weakly supermajorized by y, both positive.  Pipeline:

    1. z = intermediate_vector(x, y): z <= x, z majorized by y.
    2. U = orthogonal realization of diagonal z with spectrum y;
       C = U diag(y) U^T, then B = C (+) C (block diagonal), which has
       symplectic spectrum y and symplectic diagonal entries (z_j, z_j).
    3. W = expanding sum of SL(2) blocks for the ratios t_j = x_j / z_j;
       A = W B W^T.  Congruence preserves delta, and each diagonal pair
       becomes (t_j z_j, t_j z_j) = (x_j, x_j), so diag_M(A) = x for
       every mean.

    x keeps its original coordinate order end to end.  Every stage is
    re-verified; failures raise NumericalError naming the stage.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be vectors of the same length")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("x and y must be strictly positive")
    pre = weak_supermajorize(x, y)
    if not pre.verdict:
        raise DomainError(
            "weak supermajorization precondition fails "
            f"(worst slack {pre.k_slacks.min():.3e})")

    n = x.shape[0]
    z = intermediate_vector(x, y)
    U = horn_realize(z, y)
    C = (U * y) @ U.T
    C = 0.5 * (C + C.T)
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = C
    B[n:, n:] = C

    ratios = x / z
    bad = ratios < 1.0 - _RATIO_SLACK
    if np.any(bad):
        raise NumericalError(
            "stage 'ratio': x/z dipped below 1 beyond slack "
            f"(min {ratios.min()!r})")
    ratios = np.maximum(ratios, 1.0)
    blocks = []
    for t in ratios:
        p, q, r, s = sl2_for_ratio(mean, t)
        blocks.append(np.array([[p, q], [r, s]]))
    W = expanding_sum(blocks)
    A = W @ B @ W.T
    A = 0.5 * (A + A.T)

    try:
        A, _ = validate_pd(A, "realized matrix")
    except DomainError as exc:
        raise NumericalError(f"stage 'assemble': {exc}") from exc
    got_x = _diag_m(A, mean)
    if np.max(np.abs(got_x - x)) > tol * max(1.0, float(np.max(x))):
        raise NumericalError(
            "stage 'diag': realized symplectic diagonal off by "
            f"{np.max(np.abs(got_x - x)):.3e}")
    got_d = _delta(A, tol)
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
    which every mean collapses to the partial eigenvalue sum.
    """
    A, n = validate_pd(A)
    if not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    fact = _williamson(A, tol)
    J = standard_J(n)
    V = -J @ fact.W @ J
    X = np.hstack([V[:, :k], V[:, n:n + k]])
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
    A, n = validate_pd(A)
    if not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    delta = _delta(A, tol)
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


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement tally between the two faces of the equivalence.

    For each sampled symplectic congruence C = W^T A W, the direct
    weak-supermajorization verdict on (diag_M(C), delta(C)) is compared
    with the all-k partial-sum bound of diag_M(C) against delta(A),
    which is the frame-objective form of the same statement (delta is a
    congruence invariant).  ``disagreements`` counts samples where the
    two verdicts differ; sampling may miss witnesses, so agreement is
    evidence, not proof.
    """

    samples: int
    disagreements: int
    verdicts_true: int
    verdicts_false: int
    first_disagreement: int | None

    @property
    def consistent(self) -> bool:
        return self.disagreements == 0


def equivalence_crosscheck(A, mean: MeanSpec, budget: int = 200, seed=0,
                           tol: float = DEFAULT_TOL) -> CrosscheckReport:
    """Cross-validate the majorization and partial-sum forms on congruences."""
    A, n = validate_pd(A)
    if budget < 1:
        raise DomainError("budget must be >= 1")
    delta_base = _delta(A, tol)
    base_cumsum = np.cumsum(delta_base)

    rng = np.random.default_rng(seed)
    Jn = standard_J(n)
    counts = [budget // 4] * 4
    for i in range(budget - sum(counts)):
        counts[i] += 1

    samples = 0
    disagreements = 0
    verdicts_true = 0
    first = None
    for spread, count in zip(_SEARCH_SPREADS, counts):
        if count == 0:
            continue
        Ws = expm_batch(Jn @ _symmetric_batch(rng, count, 2 * n, spread))
        for W in Ws:
            C = W.T @ A @ W
            C, _ = validate_pd(0.5 * (C + C.T))
            dm = _diag_m(C, mean)
            direct = weak_supermajorize(dm, _delta(C, tol), tol)
            thr = direct.threshold
            partial = bool(np.all(np.cumsum(np.sort(dm)) >= base_cumsum - thr))
            if direct.verdict:
                verdicts_true += 1
            if direct.verdict != partial:
                if first is None:
                    first = samples
                disagreements += 1
            samples += 1

    return CrosscheckReport(samples=samples, disagreements=disagreements,
                            verdicts_true=verdicts_true,
                            verdicts_false=samples - verdicts_true,
                            first_disagreement=first)
