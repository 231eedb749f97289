"""The minimum principle for partial sums of symplectic eigenvalues.

Over all symplectic frames X (2n-by-2k, X^T J X = J), the sum of the
mean-paired diagonal of X^T A X is minimized exactly at the sum of the
k smallest symplectic eigenvalues, provided the mean dominates the
geometric one.  The library returns the argmin frame in closed form
from the Williamson factorization; a randomized search then tries, and
fails, to find anything below it.
"""

import numpy as np

from sympectra import (geometric_mean, is_symplectic, kyfan_minimizer,
                       kyfan_objective, kyfan_search, random_pd,
                       symplectic_eigenvalues)

A = random_pd(3, seed=5, spread=1.2)
delta = symplectic_eigenvalues(A)
print("delta(A) =", np.round(delta, 6))

for k in (1, 2, 3):
    res = kyfan_minimizer(A, k, geometric_mean())
    print("\nk = %d" % k)
    print("  exact minimum      %.10f" % res.min_value)
    print("  sum delta[:k]      %.10f" % delta[:k].sum())
    print("  frame residual     %.2e" % is_symplectic(res.minimizer).residual)
    # the returned frame really achieves the value it claims
    print("  objective at frame %.10f"
          % kyfan_objective(A, res.minimizer, geometric_mean()))

# randomized probing: thousands of random frames, none dips below
print("\nrandomized search, budget 20000 per k:")
for k in (1, 2, 3):
    rep = kyfan_search(A, k, geometric_mean(), budget=20_000, seed=k)
    print("  k=%d  best sampled %.8f  target %.8f  violations %d"
          % (k, rep.best_value, rep.delta_partial_sum, rep.violations))

# at n = 1 the frames are exactly SL(2, R) and the minimum is sqrt(det)
B = random_pd(1, seed=123)
r = kyfan_minimizer(B, 1, geometric_mean())
print("\nn = 1 cross-check: min %.10f vs sqrt(det) %.10f"
      % (r.min_value, np.sqrt(np.linalg.det(B))))
