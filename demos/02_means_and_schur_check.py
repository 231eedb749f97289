"""Generalized means and the diagonal-versus-spectrum comparison.

Pair the conjugate diagonal entries a_jj and a_{n+j,n+j} of a positive
definite A through a two-variable mean M.  For any mean that dominates
the geometric mean, the resulting vector diag_M(A) is weakly
supermajorized by the symplectic spectrum: every ascending partial sum
of the diagonal values dominates the matching partial sum of the
eigenvalues.  Means below the geometric mean (harmonic, min) admit
counterexamples, and the mean's validation report exhibits one.
"""

import numpy as np

from sympectra import (geometric_mean, harmonic_mean, min_mean, parse_mean,
                       random_pd, schur_check, symplectic_eigenvalues,
                       validate_mean_axioms)

A = random_pd(3, seed=11, spread=1.4)
print("delta(A)               :", np.round(symplectic_eigenvalues(A), 6))

for name in ("arithmetic", "geometric", "power:2", "max"):
    mean = parse_mean(name)
    rep = schur_check(A, mean)
    print("diag_%-12s holds=%s  slacks(min)=%.3e"
          % (name, rep.verdict, rep.report.k_slacks.min()))

# the slack vector is the margin in each ascending partial sum; all
# entries nonnegative (up to tolerance) is exactly the verdict
rep = schur_check(A, geometric_mean())
print("\ngeometric-mean diagonal:", np.round(rep.diag_m, 6))
print("partial-sum slacks     :", np.round(rep.report.k_slacks, 6))

# means below the geometric mean break the theorem; scan for a witness
found = None
for seed in range(200):
    B = random_pd(2, seed=seed, spread=2.0)
    r = schur_check(B, min_mean())
    if not r.verdict:
        found = (seed, r)
        break
if found:
    seed, r = found
    print("\nmin-mean counterexample at seed %d:" % seed)
    print("  diag_min :", np.round(r.diag_m, 6))
    print("  delta    :", np.round(r.delta, 6))
    print("  slacks   :", np.round(r.report.k_slacks, 6))

# the validation report explains why: harmonic and min fail
# M(a,b) >= sqrt(ab) at explicit points
for mean in (harmonic_mean(), min_mean()):
    dom = validate_mean_axioms(mean).dominates_geometric
    a, b, geo, val = dom.witness
    print("\n%s mean: dominates geometric? %s" % (mean.name, dom.passed))
    print("  witness M(%.4f, %.4f) = %.4f < sqrt(ab) = %.4f"
          % (a, b, val, geo))

print("\naxiom check (10^4 grid ratios t = 2^-s, s in [0, 900], each):")
for name in ("arithmetic", "geometric", "harmonic", "min", "max", "power:2"):
    ok = validate_mean_axioms(parse_mean(name)).passed
    print("  %-10s %s" % (name, "passed" if ok else "FAILED"))
