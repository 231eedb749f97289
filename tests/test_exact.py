"""The exact delta oracle of ``tests/exact.py`` against closed forms and
the library."""

from decimal import Decimal

import numpy as np

from exact import exact_delta
from sympectra.spectral import symplectic_eigenvalues
from sympectra.symplectic import expanding_sum, random_pd


def test_exact_delta_meets_the_closed_form_and_the_library():
    eps = np.finfo(float).eps
    for seed in range(20):
        B, C = random_pd(1, seed=seed), random_pd(1, seed=100 + seed)
        # Criterion 1's closed form: a 2x2 matrix's delta is sqrt(det).
        for M in (B, C):
            want = np.sqrt(np.linalg.det(M))
            assert abs(float(exact_delta(M)[0]) - want) <= 1e-14 * want
        # At n = 2 the quadratic's roots for the expanding sum are the
        # blocks' own, to the oracle's digits.
        got = exact_delta(expanding_sum([B, C]))
        want = sorted(exact_delta(B) + exact_delta(C))
        assert all(abs(g - w) <= Decimal("1e-70") * w for g, w in zip(got, want))
        # The library at unit condition: eigenvalues of A within [e^-1/2, e^1/2].
        for n in (1, 2):
            A = random_pd(n, seed=seed, spread=0.5)
            want = exact_delta(A)
            got = symplectic_eigenvalues(A)
            err = max(abs(Decimal(float(g)) - w) for g, w in zip(got, want))
            assert err <= Decimal(10 * n * eps) * want[-1]
