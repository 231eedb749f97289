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
  (x_j, x_j).  The spectrum is proved from the construction's own
  Williamson factor, with no eigensolver.
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
from .means import MeanSpec, _diag_m
from .spectral import _PAIR_FLOOR, _PD_CERT, _definite, _delta, _williamson
from .symplectic import (DEFAULT_TOL, _as_frame, _count, _euler_frames, _fro,
                         _in_units, _require_frame, _rng)

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
# The unit roundoff of a double, and its smallest subnormal.
_UNIT = 2.0 ** -53
_SUBNORMAL = 2.0 ** -1074


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
                            mean_dominates_geometric=mean._admission[1])


def horn_symplectic_realize(x, y, mean: MeanSpec,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive definite A with diag_M(A) = x and delta(A) = sorted y.

    Requires x weakly supermajorized by y, both positive.  Pipeline:

    1. z = intermediate_vector(x, y): x capped at a level c > 0, so
       0 < z <= x, and z majorized by y.
    2. Q = orthogonal realization of diagonal z with spectrum y;
       C = Q diag(y) Q^T, so B = C (+) C (block diagonal) has symplectic
       spectrum y and symplectic diagonal entries (z_j, z_j).
    3. For the ratios t = x / z, S = [[diag p, 0], [diag r, diag s]] with
       p = sqrt(t), r = sqrt(t - 1/t), s = 1/p is symplectic, and
       A = S B S^T is the block matrix [[pp^T o C, pr^T o C],
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
    'assemble' (A not positive definite, with c A's eigenvalue range, or
    out of range: z is subnormal, z / c underflows so that x / z is not
    finite, or c A's diagonal overflows or is subnormal), 'spectrum'
    and 'diag'.  Admissibility and the Givens check hold their sums
    against ``MAJORIZATION_TOL``; ``tol`` governs the last three stages.

    The spectrum is proved from A's own Williamson factor W = S (Q (+) Q),
    with D = diag(y), and no decomposition: ``_spectrum_bound`` bounds
    max_j |delta_j(A) - y_j| by ||W_0||_2^2 ||A - W_0 (D (+) D) W_0^T||_2
    for an exactly symplectic W_0 near W (Bhatia and Jain, J. Math. Phys.
    56 (2015): delta is monotone under the Loewner order and invariant
    under symplectic congruence).  A bound <= tol max y, with y_min above
    ``spectral``'s pairing floor, accepts.  Weyl's inequality on the same
    perturbation bounds A's eigenvalues, and certifies the definiteness
    floor with ``spectral``'s factor 100 to spare (``_PD_CERT``).  What
    the bound cannot decide is decided on c A, the matrix returned, once
    its diagonal has passed the range check: ``spectral._definite`` runs
    the exact floor check where the certificate fails, and where the
    spectrum is not proved, ``_delta`` solves it as for
    ``symplectic_eigenvalues``, through the reuse entry, and it is held
    to tol max y in the caller's units.  A proved realization neither
    reads nor replaces that entry.  The realized matrix's conditioning
    grows like (x/z)^2, and ||W||_2^2 with it, so targets with large x/z
    fall to that solve, and those past it are refused at 'spectrum': at
    x = [1e6, 1e6], y = [1, 2] the exact symplectic eigenvalues of the
    matrix formed in doubles miss y by 1.1e-4, 5.4e-5 of max y.
    """
    tol = _check_tol(tol)
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
        Q, ortho = _horn_realize(z, y, MAJORIZATION_TOL)
    except NumericalError as exc:
        raise NumericalError(f"stage 'givens': {exc}") from exc
    C = (Q * y) @ Q.T
    C = 0.5 * (C + C.T)

    # z = x capped at a level > 0, so z <= x exactly, and x / z >= 1 by
    # monotone division and t - 1/t >= 0.  Where z / c underflows, x / z
    # is 0/0 or overflows, and A's spectrum spans past any floor.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = x / z
    if not np.isfinite(t).all():
        raise NumericalError("stage 'assemble': realized matrix is out of "
                             "range: x / z underflows on the unit pair")
    p = np.sqrt(t)
    r = np.sqrt(t - 1.0 / t)
    s = 1.0 / p
    n = x.shape[0]
    A = (_congruence_blocks(p, r, s).reshape(2, n, 2, n)
         * C[:, None, :]).reshape(2 * n, 2 * n)

    ys = np.sort(y)
    bound, lo, hi = _spectrum_bound(A, Q, ortho, p, r, s, y)
    diag = A.diagonal()
    # |a_ij| <= sqrt(a_ii a_jj), so A's diagonal bounds every entry's range.
    _in_units(c, diag, "stage 'assemble': realized matrix")
    cA = c * A
    got_d = None
    # What the bound cannot decide is decided on c A, the matrix returned,
    # by spectral's readers.  c is a power of two, so c A's unit form is
    # A's, but for entries that c A makes subnormal.
    try:
        if not lo > _PD_CERT * hi:  # NaN fails too
            _definite(cA)
        if not (ys[0] > _PAIR_FLOOR * ys[-1] and bound <= tol * ys[-1]
                and bound < ys[0]):
            _, scale, d = _delta(cA, tol)
            got_d = scale * d
    except DomainError as exc:
        # The matrix reader's every message starts with its subject, "matrix".
        raise NumericalError(f"stage 'assemble': realized {exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"stage 'spectrum': {exc}") from exc
    err = np.abs(_diag_m(diag, mean) - x).max()
    if not err <= tol * x.max():  # NaN fails too
        raise NumericalError(
            f"stage 'diag': realized symplectic diagonal off by "
            f"{c * float(err):.3e}")
    if got_d is not None:
        err = np.abs(got_d - c * ys).max()
        if not err <= tol * (c * ys[-1]):
            raise NumericalError(
                f"stage 'spectrum': realized symplectic eigenvalues off by "
                f"{float(err):.3e}")
    return cA


def _congruence_blocks(p, r, s) -> np.ndarray:
    """T = uu^T + (0 oplus ss^T), u = [p; r]: A = S (C oplus C) S^T for
    S = [[diag p, 0], [diag r, diag s]] is T times C tiled 2-by-2,
    entrywise."""
    u = np.concatenate([p, r])
    T = u[:, None] * u
    n = p.shape[0]
    T[n:, n:] += s[:, None] * s
    return T


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: |fl(v) - v| <= gamma_k |v| for
    a value v of nonnegative terms formed through k roundings (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _spectrum_bound(A, Q, ortho, p, r, s, y):
    """(bound, lo, hi) for the realization A = S (C oplus C) S^T of
    ``horn_symplectic_realize`` on its unit pair: when bound < min y,
    |delta_j(A) - y_j| <= bound for y ascending, and always
    lo <= lambda_min(A) and lambda_max(A) <= hi.

    W = S (Q oplus Q) is formed entrywise from the doubles p, r, s and Q,
    and E = A - (W d) W^T by one product, d = [y; y]: no step shares A's
    assembly.  A is the stored matrix, so the rounding of forming it is
    inside E.  With Lambda = diag(d), the ingredients of
    ||A - W_0 Lambda W_0^T||_2 <= eps for an exactly symplectic W_0:

    - ||E||_F / (1 - u), for the rounding of the subtraction;
    - the product's rounding gamma_{2n+3} || |W| Lambda |W|^T ||_2 <=
      gamma_{2n+3} f / (1 - u)^2, f = sum_ij w_ij^2 d_j (three roundings
      form each term: W's entry, its multiple of d and the product), plus
      an allowance 8 n^2 2^-1074 (1 + w)(1 + 2 max y) for underflow;
    - Q's defect: ||Q - O||_2 <= ||Q^T Q - I||_2 <= omega for the polar
      factor O of Q, where omega = ortho + 2n gamma_n is the Givens check's
      ||Q^T Q - I||_F plus the rounding of its product.  Replacing Q by O
      moves the product by at most w^2 omega (2 + omega) max y, for
      w = ||S||_2 = max_j ||[[p_j, 0], [r_j, s_j]]||_2 in closed form;
    - s = fl(1/p): p_j s_j = 1 + theta_j with |theta_j| <= u, so S_0 =
      [[diag p, 0], [diag r, diag(1/p)]] is exactly symplectic and
      ||S - S_0||_2 <= sigma = gamma_1 max s, which moves the product by
      at most sigma (2w + sigma) max y.

    W_0 = S_0 (O oplus O) is then symplectic with ||W_0||_2 <= w + sigma,
    and ||W_0^-1||_2 = ||W_0||_2, so eps I <= tau W_0 W_0^T for
    tau = ||W_0||_2^2 eps.  Hence W_0 ((D - tau) oplus (D - tau)) W_0^T
    <= A <= W_0 ((D + tau) oplus (D + tau)) W_0^T, and monotonicity of
    delta gives |delta_j(A) - y_j| <= tau once tau < min y (the lower
    matrix is then positive definite, and so is A).  Weyl's inequality
    gives lo = min y / ||W_0||_2^2 - eps and hi = max y ||W_0||_2^2 + eps.
    Each input to these formulas is a double formed exactly or in fewer
    than 10 n^2 + 256 roundings in all (the sums of squares in ||E||_F,
    f and the Givens check are most of them), each a relative error of
    at most u.  So the computed bound, lo and hi are taken with the
    factor g = 1 + gamma_{10 n^2 + 256} against them.
    """
    n = y.shape[0]
    W = np.zeros((2 * n, 2 * n))
    W[:n, :n] = p[:, None] * Q
    W[n:, :n] = r[:, None] * Q
    W[n:, n:] = s[:, None] * Q
    Wd = W * np.concatenate([y, y])
    e = _fro(A - Wd @ W.T)
    f = float(np.vdot(W, Wd))
    ymax = float(y.max())
    # The larger singular value of [[a, 0], [b, d]] is
    # (hypot(a + d, b) + hypot(a - d, b)) / 2.
    w = 0.5 * float((np.hypot(p + s, r) + np.hypot(p - s, r)).max())
    sigma = _gamma(1) * float(s.max())
    omega = ortho + 2 * n * _gamma(n)
    eps = (e * (1.0 + _gamma(1)) + _gamma(2 * n + 3) * f * (1.0 + _gamma(2))
           + 8 * n * n * _SUBNORMAL * (1.0 + w) * (1.0 + 2.0 * ymax)
           + w * w * omega * (2.0 + omega) * ymax
           + sigma * (2.0 * w + sigma) * ymax)
    g = 1.0 + _gamma(10 * n * n + 256)
    w0 = (w + sigma) * (w + sigma)  # a product, so an overflow reads inf
    return (g * w0 * eps, float(y.min()) / (g * w0) - g * eps,
            g * (ymax * w0 + eps))


class KyFanResult(NamedTuple):
    """Exact minimizing frame for the k-partial symplectic eigenvalue sum."""

    k: int
    minimizer: np.ndarray
    min_value: float
    delta_partial_sum: float


def kyfan_objective(A, X, mean: MeanSpec) -> float:
    """sum_{j<=k} M(b_jj, b_{k+j,k+j}) for B = X^T A X over a frame X.

    Scored on A's unit form, as every mean-indexed diagonal is; A has
    no spectrum here to certify definiteness, so it is read by
    ``spectral._definite``, which runs the exact floor check.  A NaN or
    out-of-range value raises NumericalError, as does a frame that
    carries diag(X^T U X) out of the double range."""
    U, c = _definite(A)
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
    # A sum past the double range is this raise, not an overflow warning.
    with np.errstate(over="ignore"):
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
    tol = _check_tol(tol)
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
