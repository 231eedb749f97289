"""Release acceptance gate.

One test per criterion.  Each prints a single [PASS]/[FAIL] line outside
pytest's capture (so the verdicts are always visible on the terminal)
and then asserts, so a red line always comes with a red test.
"""

import time

import numpy as np

from sympectra.majorization import weak_supermajorize
from sympectra.means import (arithmetic_mean, geometric_mean, harmonic_mean,
                             max_mean, min_mean, parse_mean,
                             validate_mean_axioms)
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_search, schur_check)
from sympectra.spectral import (symplectic_diag, symplectic_eigenvalues,
                                williamson)
from sympectra.symplectic import (expanding_sum, random_pd, random_symplectic,
                                  s_pinching, standard_J)


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: "
              f"{label} ({detail})", flush=True)
    return ok


def _admissible_pair(rng, n, noise=1.0):
    """Random (x, y) with x weakly supermajorized by y."""
    y = rng.uniform(0.2, 3.0, size=n)
    z = np.zeros(n)
    m = rng.integers(1, 5)
    for _ in range(m):
        z += y[rng.permutation(n)]
    z /= m
    x = z + noise * rng.uniform(0.0, 1.0, size=n) * rng.integers(0, 2, size=n)
    return x, y


def test_criterion_1_two_by_two_closed_form(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1000):
        A = random_pd(1, seed=int(rng.integers(2**31)),
                      spread=float(rng.uniform(0.2, 2.0)))
        want = np.sqrt(np.linalg.det(A))
        got = symplectic_eigenvalues(A)[0]
        worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    assert _report(capsys, 1, "2x2 spectrum equals sqrt(det)", ok,
                   f"worst rel err {worst:.2e}, {dt:.2f} s"), worst


def test_criterion_2_williamson_reconstruction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_rec, worst_sym = 0.0, 0.0
    for n in (1, 2, 3, 4, 6):
        J = standard_J(n)
        for i in range(200):
            if n >= 2 and i % 7 == 0:
                # clustered spectrum: two delta equal to 1e-6 relative
                base = rng.uniform(0.5, 2.0)
                delta = np.sort(rng.uniform(0.5, 2.0, size=n))
                delta[0], delta[1] = base, base * (1.0 + 1e-6)
                W0 = random_symplectic(n, seed=int(rng.integers(2**31)),
                                       spread=0.8)
                D2 = np.concatenate([delta, delta])
                A = (W0 * D2) @ W0.T
                A = 0.5 * (A + A.T)
            else:
                A = random_pd(n, seed=int(rng.integers(2**31)),
                              spread=float(rng.uniform(0.2, 1.5)))
            fact = williamson(A)
            D2 = np.concatenate([fact.delta, fact.delta])
            rec = np.linalg.norm(A - (fact.W * D2) @ fact.W.T)
            rec /= np.linalg.norm(A)
            sym = np.linalg.norm(fact.W.T @ J @ fact.W - J)
            worst_rec = max(worst_rec, rec)
            worst_sym = max(worst_sym, sym)
    dt = time.perf_counter() - t0
    ok = worst_rec <= 1e-8 and worst_sym <= 1e-8 and dt < 60.0
    assert _report(capsys, 2, "Williamson reconstruction incl. clustered spectra", ok,
                   f"worst rec {worst_rec:.2e}, worst sympl {worst_sym:.2e}, "
                   f"{dt:.2f} s"), (worst_rec, worst_sym)


def test_criterion_3_congruence_invariance(capsys):
    worst = 0.0
    for i in range(500):
        n = i % 4 + 1
        A = random_pd(n, seed=i)
        W = random_symplectic(n, seed=10_000 + i)
        d1 = symplectic_eigenvalues(A)
        d2 = symplectic_eigenvalues(W.T @ A @ W)
        worst = max(worst, float(np.max(np.abs(d2 - d1) / d1)))
    ok = worst <= 1e-7
    assert _report(capsys, 3, "spectrum invariant under symplectic congruence", ok,
                   f"worst rel dev {worst:.2e} over 500 pairs"), worst


def test_criterion_4_expanding_sum_additivity(capsys):
    worst = 0.0
    for i in range(200):
        na, nb = i % 3 + 1, (i // 3) % 3 + 1
        A = random_pd(na, seed=i)
        B = random_pd(nb, seed=20_000 + i)
        union = np.sort(np.concatenate([symplectic_eigenvalues(A),
                                        symplectic_eigenvalues(B)]))
        got = symplectic_eigenvalues(expanding_sum([A, B]))
        worst = max(worst, float(np.max(np.abs(got - union))))
    ok = worst <= 1e-9
    assert _report(capsys, 4, "spectrum of expanding sum is the sorted union", ok,
                   f"worst abs dev {worst:.2e} over 200 pairs"), worst


def test_criterion_5_schur_always_holds(capsys):
    means = [arithmetic_mean(), geometric_mean(), parse_mean("power:2"),
             max_mean()]
    passed = total = 0
    for i in range(1000):
        A = random_pd(i % 4 + 1, seed=i, spread=1.2)
        for mean in means:
            total += 1
            passed += bool(schur_check(A, mean, 1e-8).verdict)
    ok = passed == total
    assert _report(capsys, 5, "diagonal weakly supermajorized by spectrum", ok,
                   f"{passed}/{total} verdicts true"), (passed, total)


def test_criterion_6_realization_round_trip(capsys):
    means = [arithmetic_mean(), geometric_mean(), harmonic_mean(),
             min_mean(), max_mean()]
    rng = np.random.default_rng(6)
    worst = 0.0
    good = total = 0
    for i in range(500):
        n = int(rng.integers(1, 9))
        x, y = _admissible_pair(rng, n)
        for mean in means:
            total += 1
            A = horn_symplectic_realize(x, y, mean)
            ex = float(np.max(np.abs(symplectic_diag(A, mean) - x)))
            ey = float(np.max(np.abs(symplectic_eigenvalues(A) - np.sort(y))))
            worst = max(worst, ex, ey)
            good += ex <= 1e-8 and ey <= 1e-8
    ok = good == total
    assert _report(capsys, 6, "diagonal/spectrum realization round trip", ok,
                   f"{good}/{total} exact to 1e-8, worst {worst:.2e}"), worst


def test_criterion_7_kyfan_principle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    violations = 0
    for i in range(100):
        n = i % 4 + 1
        A = random_pd(n, seed=i)
        delta = symplectic_eigenvalues(A)
        for k in range(1, n + 1):
            res = kyfan_minimizer(A, k, geometric_mean())
            worst = max(worst, abs(res.min_value - delta[:k].sum()))
            rep = kyfan_search(A, k, geometric_mean(), budget=10_000,
                               seed=100 * i + k)
            violations += rep.violations
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and violations == 0 and dt < 300.0
    assert _report(capsys, 7, "partial-sum minimum attained, search never below", ok,
                   f"worst attain err {worst:.2e}, {violations} violations, "
                   f"{dt:.1f} s"), (worst, violations)


def test_criterion_8_pinching_chain(capsys):
    worst = 0.0
    all_super = True
    for i in range(200):
        n = i % 4 + 1
        A = random_pd(n, seed=i, spread=1.3)
        dA = symplectic_eigenvalues(A)
        C = s_pinching(A, [1] * n)
        dC = symplectic_eigenvalues(C)
        closed = np.sort([np.sqrt(A[j, j] * A[n + j, n + j]
                                  - A[j, n + j] ** 2) for j in range(n)])
        worst = max(worst, float(np.max(np.abs(dC - closed))))
        all_super &= bool(weak_supermajorize(dC, dA).verdict)
    ok = worst <= 1e-9 and all_super
    assert _report(capsys, 8, "pinched spectrum closed form and dominance", ok,
                   f"worst abs dev {worst:.2e}, dominance "
                   f"{'held' if all_super else 'FAILED'}"), (worst, all_super)


def test_criterion_9_brute_force_n1(capsys):
    A = random_pd(1, seed=99)
    exact = float(np.sqrt(np.linalg.det(A)))
    rng = np.random.default_rng(9)
    N = 100_000
    # vectorized Iwasawa sampling: shear . diag(lam, 1/lam) . rotation
    sigma = rng.choice([0.05, 0.2, 0.5, 1.0], size=N)
    mu = rng.standard_normal(N) * sigma
    lam = np.exp(rng.standard_normal(N) * sigma)
    th = rng.uniform(0.0, 2.0 * np.pi, size=N)
    c, s = np.cos(th), np.sin(th)
    x00 = lam * c + (mu / lam) * s
    x01 = -lam * s + (mu / lam) * c
    x10 = s / lam
    x11 = c / lam
    a, b, d = A[0, 0], A[0, 1], A[1, 1]
    b00 = a * x00 ** 2 + 2 * b * x00 * x10 + d * x10 ** 2
    b11 = a * x01 ** 2 + 2 * b * x01 * x11 + d * x11 ** 2
    f = np.sqrt(b00 * b11)
    above = float(f.min() - exact)
    ok = above <= 1e-4 and above >= -1e-8
    assert _report(capsys, 9, "n=1 sampled minimum brackets sqrt(det)", ok,
                   f"min gap {above:.2e} over {N} congruences"), above


def test_criterion_10_mean_axioms_and_witnesses(capsys):
    builtins = [arithmetic_mean(), geometric_mean(), harmonic_mean(),
                min_mean(), max_mean(), parse_mean("power:2")]
    # The library's one grid: 10 000 ratios.
    all_passed = all(rep.passed and rep.samples == 10_000
                     for rep in map(validate_mean_axioms, builtins))
    wit_ok = True
    for m in (harmonic_mean(), min_mean()):
        rep = validate_mean_axioms(m).dominates_geometric
        wit_ok &= (not rep.passed) and rep.witness is not None
        if rep.witness is not None:
            a, b, geo, val = rep.witness
            wit_ok &= val < geo
    ok = all_passed and wit_ok
    assert _report(capsys, 10, "mean axioms pass, non-dominance witnessed", ok,
                   f"6 built-ins validated, witnesses "
                   f"{'found' if wit_ok else 'MISSING'}"), (all_passed, wit_ok)
