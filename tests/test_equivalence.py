"""Schur's theorem and Ky Fan's minimum principle, checked against each other.

The two sides run through separate code: ``schur_check`` compares sorted
prefix sums of diag_M(A) with those of delta(A), and ``kyfan_objective``
scores a symplectic frame.  The paper proves them equivalent, so each
direction of the proof relates the two routes.

Ky Fan => Schur is an exact identity on coordinate frames.  For an index
set S of size k, X_S = [e_S, e_{n+S}] is a symplectic frame whose objective
is the sum of M(a_jj, a_{n+j,n+j}) over j in S.  Its minimum over S is the
sum of the k smallest diag_M entries, so the k-th Schur slack equals
min_S kyfan_objective(A, X_S, M) - (delta_1 + ... + delta_k).

Schur => Ky Fan goes through a compression B = X^T A X by a symplectic
frame X, 2n-by-2k.  The Schur link is the forward theorem on B: for M
dominating the geometric mean, diag_M(B) is weakly supermajorized by
delta(B).  The interlacing link is delta_j(B) >= delta_j(A), j <= k
(Bhatia & Jain, J. Math. Phys. 56 (2015)).  Summed, the two give the Ky
Fan bound, so a defect shows in the link that holds it: an objective
bug breaks the Schur link, and a frame that is not symplectic, or a
delta error that depends on the matrix, breaks interlacing.
"""

import itertools

import numpy as np
import pytest

from sympectra import (arithmetic_mean, geometric_mean, kyfan_objective,
                       max_mean, power_mean, random_pd, random_symplectic,
                       schur_check, symplectic_eigenvalues)

EPS = np.finfo(float).eps
MEANS = {"geometric": geometric_mean(), "arithmetic": arithmetic_mean(),
         "power:2": power_mean(2), "max": max_mean()}


def coordinate_frame(n, S):
    cols = [*S, *(n + j for j in S)]
    return np.eye(2 * n)[:, cols]


@pytest.mark.parametrize("name", MEANS)
def test_schur_slacks_are_kyfan_minima_over_coordinate_frames(name):
    mean = MEANS[name]
    for seed in range(20):
        n = seed % 4 + 1
        A = 2.0 ** (7 * seed - 60) * random_pd(n, seed=seed)
        rep = schur_check(A, mean)
        for k in range(1, n + 1):
            best = min(kyfan_objective(A, coordinate_frame(n, S), mean)
                       for S in itertools.combinations(range(n), k))
            partial = float(np.sum(rep.delta[:k]))
            slack = rep.report.k_slacks[k - 1]
            assert abs(slack - (best - partial)) <= 4 * EPS * (best + partial), \
                (name, seed, k, slack, best - partial)


def compressions():
    """(n, A, X, B = X^T A X) over 180 frames: n in {2, 3, 4}, five
    matrices each, the Euler-form spreads of ``kyfan_search`` and every k."""
    for n in (2, 3, 4):
        for seed in range(5):
            A = random_pd(n, seed=seed)
            for spread in (0.1, 0.5, 1.0, 2.0):
                S = random_symplectic(n, seed=100 + seed, spread=spread)
                for k in range(1, n + 1):
                    X = S[:, [*range(k), *range(n, n + k)]]
                    B = X.T @ A @ X
                    yield n, A, X, 0.5 * (B + B.T)


@pytest.mark.parametrize("name", ["geometric", "arithmetic"])
def test_schur_link_holds_on_every_compression(name):
    mean = MEANS[name]
    for n, A, X, B in compressions():
        assert schur_check(B, mean).verdict, (name, n, X.shape)


def test_interlacing_link_holds_on_every_compression():
    # delta_j(B) >= delta_j(A) - 2n eps ||X||_2^2 ||A||_2 sqrt(kappa(B)),
    # j <= k.  The slack is provisional until the library states its own
    # error bound for delta: the computed delta of a matrix A misses the
    # exact one by up to a constant times eps ||A||_2 sqrt(kappa(A)).
    count = worst = 0
    for n, A, X, B in compressions():
        k = X.shape[1] // 2
        slack = (2 * n * EPS * np.linalg.norm(X, 2) ** 2
                 * np.linalg.norm(A, 2) * np.sqrt(np.linalg.cond(B)))
        deficit = (symplectic_eigenvalues(A)[:k]
                   - symplectic_eigenvalues(B)).max()
        assert deficit <= slack, (n, k, deficit, slack)
        worst = max(worst, deficit / slack)
        count += 1
    assert count == 180 and worst < 1.0
