import numpy as np
import pytest

import sympectra.majorization
import sympectra.schur_horn
from sympectra import DomainError, NumericalError
from sympectra.majorization import weak_supermajorize
from sympectra.means import (arithmetic_mean, custom_mean, geometric_mean,
                             harmonic_mean, max_mean, min_mean, parse_mean)
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_objective, kyfan_search, schur_check)
from sympectra.spectral import symplectic_diag, symplectic_eigenvalues, williamson
from sympectra.symplectic import (check_frame, frame_residual, random_pd,
                                  random_symplectic, standard_J)

DOMINATING = [arithmetic_mean(), geometric_mean(), parse_mean("power:2"),
              max_mean()]


def admissible_pair(rng, n, noise=1.0):
    y = rng.uniform(0.2, 3.0, size=n)
    z = np.zeros(n)
    m = rng.integers(1, 5)
    for _ in range(m):
        z += y[rng.permutation(n)]
    z /= m
    x = z + noise * rng.uniform(0.0, 1.0, size=n) * rng.integers(0, 2, size=n)
    return x, y


# ---------------------------------------------------------------- schur_check

def test_schur_check_identity_equality_case():
    for mean in DOMINATING + [harmonic_mean(), min_mean()]:
        rep = schur_check(np.eye(6), mean)
        assert rep.verdict
        np.testing.assert_allclose(rep.diag_m, 1.0, atol=1e-14)
        np.testing.assert_allclose(rep.delta, 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.report.k_slacks, 0.0, atol=1e-11)


def test_schur_check_two_by_two_examples():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    rep = schur_check(A, geometric_mean())
    assert rep.verdict
    np.testing.assert_allclose(rep.diag_m, [np.sqrt(2.0)])
    np.testing.assert_allclose(rep.delta, [1.0], rtol=1e-12)

    rep = schur_check(A, arithmetic_mean())
    assert rep.verdict
    np.testing.assert_allclose(rep.diag_m, [1.5])


def test_schur_check_random_sweep_dominating_means():
    for seed in range(40):
        A = random_pd(int(seed % 4) + 1, seed=seed, spread=1.5)
        for mean in DOMINATING:
            rep = schur_check(A, mean)
            assert rep.verdict, (seed, mean.name, rep.report.k_slacks)
            assert rep.mean_dominates_geometric


def test_schur_check_non_dominating_mean_well_formed():
    # min mean can genuinely fail; the report must still be coherent.
    A = random_pd(2, seed=0, spread=2.0)
    rep = schur_check(A, min_mean())
    assert not rep.mean_dominates_geometric
    assert rep.report.kind == "weak_super"
    assert rep.diag_m.shape == rep.delta.shape == (2,)
    recomputed = weak_supermajorize(rep.diag_m, rep.delta).verdict
    assert rep.verdict == recomputed


def test_schur_check_samples_custom_dominance_once():
    # Each call evaluates the n = 1 diagonal pair; the 2000-pair dominance
    # sample runs on the first call only and is kept on the spec.
    evaluated = []

    def heronian(a, b):
        evaluated.append(np.size(a))
        return (a + np.sqrt(a * b) + b) / 3.0

    mean = custom_mean(heronian)
    A = random_pd(1, seed=2)
    reports = [schur_check(A, mean) for _ in range(3)]
    assert sum(evaluated) == 2000 + 3
    assert all(rep.mean_dominates_geometric for rep in reports)


def test_schur_check_finds_min_mean_counterexample():
    found = False
    for seed in range(100):
        A = random_pd(2, seed=seed, spread=2.0)
        if not schur_check(A, min_mean()).verdict:
            found = True
            break
    assert found


# -------------------------------------------------- horn_symplectic_realize

def test_realize_equality_case_constant_vectors():
    A = horn_symplectic_realize([2.0, 2.0], [2.0, 2.0], geometric_mean())
    np.testing.assert_allclose(symplectic_diag(A, geometric_mean()), 2.0,
                               atol=1e-10)
    np.testing.assert_allclose(symplectic_eigenvalues(A), 2.0, atol=1e-10)


def test_realize_hand_example():
    A = horn_symplectic_realize([2.0, 2.0], [1.0, 2.0], geometric_mean())
    np.testing.assert_allclose(symplectic_diag(A, geometric_mean()),
                               [2.0, 2.0], atol=1e-8)
    np.testing.assert_allclose(symplectic_eigenvalues(A), [1.0, 2.0],
                               atol=1e-8)


def test_realize_n1_arithmetic():
    A = horn_symplectic_realize([3.0], [2.0], arithmetic_mean())
    assert A.shape == (2, 2)
    np.testing.assert_allclose(symplectic_diag(A, arithmetic_mean()), [3.0],
                               atol=1e-10)
    assert np.sqrt(np.linalg.det(A)) == pytest.approx(2.0, rel=1e-10)


def test_realize_sweep_all_means():
    rng = np.random.default_rng(7)
    means = [arithmetic_mean(), geometric_mean(), harmonic_mean(),
             min_mean(), max_mean()]
    for trial in range(30):
        n = int(rng.integers(1, 9))
        x, y = admissible_pair(rng, n)
        mean = means[trial % len(means)]
        A = horn_symplectic_realize(x, y, mean)
        np.testing.assert_allclose(symplectic_diag(A, mean), x,
                                   atol=1e-8 * max(1.0, x.max()))
        np.testing.assert_allclose(symplectic_eigenvalues(A), np.sort(y),
                                   atol=1e-8 * max(1.0, y.max()))


def test_realize_works_for_custom_mean():
    # The construction only needs M(a, a) = a, so a mean with no
    # dominance relation to the geometric mean is fine.
    mean = custom_mean(lambda a, b: min(a, b) ** 0.25 * max(a, b) ** 0.75)
    A = horn_symplectic_realize([2.0, 2.0], [1.0, 2.0], mean)
    np.testing.assert_allclose(symplectic_diag(A, mean), [2.0, 2.0],
                               atol=1e-8)


def test_realize_flags_mean_violating_idempotence():
    # M(a, a) = 2a breaks the construction; the diagonal stage catches it.
    broken = custom_mean(lambda a, b: a + b)
    with pytest.raises(NumericalError, match="stage 'diag'"):
        horn_symplectic_realize([2.0, 2.0], [1.0, 2.0], broken)


def test_realize_diagonal_pairs_equal_x_for_builtin_means():
    # Each realized diagonal pair is (x_j, x_j), so every mean reads x_j.
    rng = np.random.default_rng(11)
    means = [arithmetic_mean(), geometric_mean(), harmonic_mean(), min_mean(),
             max_mean(), parse_mean("power:2"), parse_mean("power:-3")]
    for mean in means:
        for n in (1, 2, 5):
            x, y = admissible_pair(rng, n)
            d = np.diag(horn_symplectic_realize(x, y, mean))
            np.testing.assert_allclose(d[:n], x, rtol=1e-13)
            np.testing.assert_allclose(d[n:], x, rtol=1e-13)


def test_realize_keeps_x_coordinate_order():
    x = np.array([3.0, 1.0, 2.5])
    y = np.array([0.5, 1.0, 2.0])
    A = horn_symplectic_realize(x, y, max_mean())
    np.testing.assert_allclose(symplectic_diag(A, max_mean()), x, atol=1e-8)


def test_realize_runs_each_majorization_check_once(monkeypatch):
    calls = {"weak_supermajorize": 0, "majorize": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (sympectra.majorization, sympectra.schur_horn):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    x, y = admissible_pair(np.random.default_rng(4), 4)
    horn_symplectic_realize(x, y, geometric_mean())
    assert calls == {"weak_supermajorize": 1, "majorize": 1}


def test_realize_errors_name_their_stage_at_tiny_scale():
    # Either a valid realization or a NumericalError naming its stage.
    x, y = [2e-200, 3e-200], [1e-200, 2e-200]
    try:
        A = horn_symplectic_realize(x, y, arithmetic_mean())
    except NumericalError as exc:
        assert str(exc).startswith(
            ("stage 'intermediate': ", "stage 'givens': ", "stage 'assemble': ",
             "stage 'spectrum': ", "stage 'diag': ")), str(exc)
    else:
        np.testing.assert_allclose(symplectic_diag(A, arithmetic_mean()), x,
                                   rtol=1e-8)
        np.testing.assert_allclose(symplectic_eigenvalues(A), y, rtol=1e-8)


def test_realize_rejects_bad_inputs():
    with pytest.raises(DomainError):
        horn_symplectic_realize([1.0, 2.0], [0.5, 3.0], geometric_mean())
    with pytest.raises(DomainError):
        horn_symplectic_realize([2.0, -2.0], [1.0, 2.0], geometric_mean())
    with pytest.raises(DomainError):
        horn_symplectic_realize([2.0], [1.0, 2.0], geometric_mean())


# ------------------------------------------------------------------- Ky Fan

def test_kyfan_minimizer_williamson_diagonal_input():
    A = np.diag([1.0, 3.0, 1.0, 3.0])
    res = kyfan_minimizer(A, 1, geometric_mean())
    assert res.min_value == pytest.approx(1.0, abs=1e-10)
    assert res.delta_partial_sum == pytest.approx(1.0, abs=1e-12)
    assert res.minimizer.shape == (4, 2)


def test_kyfan_minimizer_identity_all_k():
    for k in (1, 2, 3):
        res = kyfan_minimizer(np.eye(6), k, arithmetic_mean())
        assert res.min_value == pytest.approx(float(k), abs=1e-10)


def test_kyfan_minimizer_matches_partial_sums():
    for seed in range(10):
        A = random_pd(3, seed=seed)
        delta = symplectic_eigenvalues(A)
        for k in (1, 2, 3):
            for mean in (geometric_mean(), harmonic_mean(), max_mean()):
                res = kyfan_minimizer(A, k, mean)
                assert abs(res.min_value - delta[:k].sum()) <= 1e-8
                assert frame_residual(res.minimizer) <= 1e-8


def test_kyfan_minimizer_frame_is_columns_of_inverse_transpose():
    # Reference: the frame as columns (1..k, n+1..n+k) of V = -J W J.
    for n in (1, 2, 5):
        A = random_pd(n, seed=n, spread=1.5)
        W = williamson(A).W
        J = standard_J(n)
        V = -J @ W @ J
        for k in range(1, n + 1):
            X = kyfan_minimizer(A, k, geometric_mean()).minimizer
            np.testing.assert_array_equal(
                X, np.hstack([V[:, :k], V[:, n:n + k]]))


def test_kyfan_minimizer_k_range():
    A = random_pd(2, seed=1)
    with pytest.raises(DomainError):
        kyfan_minimizer(A, 0, geometric_mean())
    with pytest.raises(DomainError):
        kyfan_minimizer(A, 3, geometric_mean())


def test_kyfan_objective_identity_pattern():
    A = random_pd(3, seed=5)
    X = np.eye(6)[:, [0, 1, 3, 4]]  # columns 1..k and n+1..n+k, k = 2
    got = kyfan_objective(A, X, geometric_mean())
    want = sum(np.sqrt(A[j, j] * A[3 + j, 3 + j]) for j in range(2))
    assert got == pytest.approx(want, rel=1e-12)


def test_kyfan_objective_full_williamson_frame():
    A = random_pd(3, seed=6)
    f = williamson(A)
    res = kyfan_minimizer(A, 3, arithmetic_mean())
    assert res.min_value == pytest.approx(f.delta.sum(), abs=1e-9)


def test_kyfan_objective_congruence_identity():
    A = random_pd(2, seed=3)
    W = random_symplectic(2, seed=4)
    X = random_symplectic(2, seed=5)[:, [0, 2]]
    a = kyfan_objective(A, X, geometric_mean())
    b = kyfan_objective(W.T @ A @ W, np.linalg.solve(W, X), geometric_mean())
    assert a == pytest.approx(b, rel=1e-9)


def test_kyfan_objective_rejects_non_frame():
    A = random_pd(2, seed=0)
    with pytest.raises(DomainError):
        kyfan_objective(A, np.ones((4, 2)), geometric_mean())


def test_frame_checks_reject_non_frames_past_norm_overflow():
    # ||X||_F^2 overflows here; X^T J X = 1e320 J is no frame at any scale.
    X = 1e160 * np.eye(4)[:, [0, 2]]
    with pytest.raises(DomainError):
        check_frame(X)
    with pytest.raises(DomainError):
        kyfan_objective(random_pd(2), X, geometric_mean())


def test_kyfan_search_identity_matrix():
    rep = kyfan_search(np.eye(8), 2, geometric_mean(), budget=800, seed=0)
    assert rep.violations == 0
    assert rep.best_value >= 2.0 - 1e-8
    assert rep.n_samples == 800


def test_kyfan_search_respects_lower_bound():
    for seed in range(4):
        A = random_pd(3, seed=seed, spread=1.5)
        res = kyfan_minimizer(A, 2, geometric_mean())
        rep = kyfan_search(A, 2, geometric_mean(), budget=2000, seed=seed)
        assert rep.violations == 0
        assert rep.best_value >= res.min_value - 1e-8
        assert rep.delta_partial_sum == pytest.approx(res.delta_partial_sum)


def test_kyfan_search_deterministic():
    A = random_pd(2, seed=9)
    r1 = kyfan_search(A, 1, geometric_mean(), budget=503, seed=11)
    r2 = kyfan_search(A, 1, geometric_mean(), budget=503, seed=11)
    assert r1.best_value == r2.best_value
    np.testing.assert_array_equal(r1.best_frame, r2.best_frame)
    assert r1.n_samples == 503


def test_kyfan_search_budget_validation():
    A = random_pd(2, seed=0)
    with pytest.raises(DomainError):
        kyfan_search(A, 1, geometric_mean(), budget=0)


def test_kyfan_search_non_dominating_mean_well_formed():
    A = random_pd(2, seed=2, spread=2.0)
    rep = kyfan_search(A, 1, min_mean(), budget=500, seed=0)
    assert rep.violations >= 0
    assert np.isfinite(rep.best_value)


# -------------------------------------------------------- pinching chain

def test_pinching_chain_properties():
    from sympectra.symplectic import s_pinching
    rng = np.random.default_rng(17)
    for seed in range(30):
        n = int(rng.integers(1, 5))
        A = random_pd(n, seed=seed, spread=1.2)
        C = s_pinching(A, [1] * n)
        dC = symplectic_eigenvalues(C)
        closed = np.sort([np.sqrt(A[j, j] * A[n + j, n + j] - A[j, n + j] ** 2)
                          for j in range(n)])
        np.testing.assert_allclose(dC, closed, atol=1e-9)
        assert weak_supermajorize(dC, symplectic_eigenvalues(A)).verdict
        # each block value is below any geometric-dominating mean of the pair
        for mean in DOMINATING:
            dm = symplectic_diag(A, mean)
            blocks = np.array([np.sqrt(A[j, j] * A[n + j, n + j]
                                       - A[j, n + j] ** 2) for j in range(n)])
            assert np.all(blocks <= dm + 1e-12)


def test_geometric_mean_paths_past_product_overflow():
    # sqrt(a*b) overflowed to inf at 1e200 and underflowed to 0 at 1e-200.
    g = geometric_mean()
    A = random_pd(2, seed=6)
    for c in (1e200, 1e-200):
        np.testing.assert_allclose(symplectic_diag(c * A, g) / c,
                                   symplectic_diag(A, g), rtol=1e-14)
    res = kyfan_minimizer(1e200 * A, 2, g)
    np.testing.assert_allclose(res.min_value / 1e200,
                               kyfan_minimizer(A, 2, g).min_value, rtol=1e-12)
    B = horn_symplectic_realize([2e200, 3e200], [1e200, 2e200], g)
    np.testing.assert_allclose(symplectic_diag(B, g), [2e200, 3e200],
                               rtol=1e-12)
