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
"""

import itertools

import numpy as np
import pytest

from sympectra import (arithmetic_mean, geometric_mean, kyfan_objective,
                       max_mean, power_mean, random_pd, schur_check)

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
