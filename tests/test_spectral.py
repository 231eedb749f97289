import re

import numpy as np
import pytest
import scipy.linalg

from sympectra import (DomainError, NumericalError, SympectraError, schur_horn,
                       spectral)
from sympectra.means import arithmetic_mean, geometric_mean, max_mean, parse_mean
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_search, schur_check)
from sympectra.spectral import (symplectic_diag, symplectic_eigenvalues,
                                williamson)
from sympectra.symplectic import (DEFAULT_TOL, _pow2_scale,
                                  complete_to_symplectic, expanding_sum,
                                  is_symplectic, random_pd, random_symplectic,
                                  standard_J)

# Reference values computed with the generic nonsymmetric eigensolver on
# J @ A (positive imaginary parts, sorted), independently of the
# Cholesky route used by the library.
ORACLE_A2_SEED123 = [1.0365365114940959, 1.5538267116719693]
ORACLE_A3_SEED77 = [0.9592149061428442, 1.162898703982922, 1.8530643932017912]


def jA_moduli(A):
    n = A.shape[0] // 2
    ev = np.linalg.eigvals(standard_J(n) @ A)
    return np.sort(ev.imag[ev.imag > 0])


def test_frozen_oracle_values():
    np.testing.assert_allclose(symplectic_eigenvalues(random_pd(2, seed=123)),
                               ORACLE_A2_SEED123, rtol=1e-10)
    np.testing.assert_allclose(symplectic_eigenvalues(random_pd(3, seed=77)),
                               ORACLE_A3_SEED77, rtol=1e-10)


def test_identity_spectrum():
    np.testing.assert_allclose(symplectic_eigenvalues(np.eye(8)), np.ones(4),
                               atol=1e-14)


def test_two_by_two_determinant_formula():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(symplectic_eigenvalues(A), [1.0], rtol=1e-12)
    np.testing.assert_allclose(symplectic_eigenvalues(np.diag([2.0, 8.0])),
                               [4.0], rtol=1e-12)


def test_expanding_sum_merges_spectra():
    A = np.diag([1.0, 1.0])          # delta = {1}
    B = np.diag([3.0, 3.0])          # delta = {3}
    got = symplectic_eigenvalues(expanding_sum([A, B]))
    np.testing.assert_allclose(got, [1.0, 3.0], rtol=1e-12)


def test_moduli_routes_agree():
    # sigma(J A) and sigma(A^{1/2} J A^{1/2}) have the same moduli.
    for seed in range(20):
        A = random_pd(3, seed=seed)
        w, V = np.linalg.eigh(A)
        S = (V * np.sqrt(w)) @ V.T
        K = S @ standard_J(3) @ S
        kk = np.sort(np.linalg.eigvals(K).imag)
        kk = kk[kk > 0]
        np.testing.assert_allclose(jA_moduli(A), kk, atol=1e-9)
        np.testing.assert_allclose(symplectic_eigenvalues(A), kk, atol=1e-9)


def test_congruence_invariance():
    for seed in range(30):
        A = random_pd(3, seed=seed)
        W = random_symplectic(3, seed=seed + 1000)
        d0 = symplectic_eigenvalues(A)
        d1 = symplectic_eigenvalues(W.T @ A @ W)
        np.testing.assert_allclose(d1, d0, rtol=1e-8)


def test_expanding_sum_additivity_random():
    for seed in range(20):
        A = random_pd(2, seed=seed)
        B = random_pd(3, seed=seed + 500)
        merged = np.sort(np.concatenate([symplectic_eigenvalues(A),
                                         symplectic_eigenvalues(B)]))
        got = symplectic_eigenvalues(expanding_sum([A, B]))
        np.testing.assert_allclose(got, merged, atol=1e-9)


def test_scaling_homogeneity():
    A = random_pd(3, seed=8)
    d = symplectic_eigenvalues(A)
    for c in (0.01, 3.0, 250.0):
        np.testing.assert_allclose(symplectic_eigenvalues(c * A), c * d,
                                   rtol=1e-10)


def test_spectrum_is_ascending_and_positive():
    for seed in range(10):
        d = symplectic_eigenvalues(random_pd(4, seed=seed, spread=2.0))
        assert np.all(d > 0)
        assert np.all(np.diff(d) >= 0)


def reconstruct(f):
    """W (D oplus D) W^T for a Williamson factorization f."""
    d = np.concatenate([f.delta, f.delta])
    return (f.W * d) @ f.W.T


def test_williamson_reconstruction_and_symplecticity():
    for n in (1, 2, 3, 4, 6):
        for seed in range(10):
            A = random_pd(n, seed=seed)
            f = williamson(A)
            assert f.residual <= 1e-9
            assert is_symplectic(f.W, 1e-9).ok
            np.testing.assert_allclose(reconstruct(f), A,
                                       atol=1e-9 * np.linalg.norm(A))
            np.testing.assert_allclose(f.delta, symplectic_eigenvalues(A),
                                       atol=1e-9)


def test_williamson_two_by_two_example():
    f = williamson(np.diag([2.0, 8.0]))
    np.testing.assert_allclose(f.delta, [4.0], rtol=1e-12)
    # diag(1/sqrt2, sqrt2) is one valid factor; any returned W must
    # reproduce A and the form.
    W_ref = np.diag([1 / np.sqrt(2.0), np.sqrt(2.0)])
    np.testing.assert_allclose(W_ref @ (4 * np.eye(2)) @ W_ref.T,
                               np.diag([2.0, 8.0]), rtol=1e-15)
    assert abs(np.linalg.det(f.W)) == pytest.approx(1.0, rel=1e-12)


def test_williamson_already_normal_form():
    D = np.diag([1.0, 3.0, 1.0, 3.0])
    f = williamson(D)
    np.testing.assert_allclose(f.delta, [1.0, 3.0], rtol=1e-12)
    np.testing.assert_allclose(reconstruct(f), D, atol=1e-12)


def test_williamson_clustered_spectrum():
    # Two symplectic eigenvalues split by 1e-6 relative, plus an exact
    # duplicate pair: the factorization contract must still hold.
    n = 4
    delta = np.array([1.0, 1.0 + 1e-6, 2.0, 2.0])
    W0 = random_symplectic(n, seed=5)
    A = (W0 * np.concatenate([delta, delta])) @ W0.T
    A = 0.5 * (A + A.T)
    f = williamson(A)
    np.testing.assert_allclose(f.delta, delta, rtol=1e-7)
    assert f.residual <= 1e-8
    assert is_symplectic(f.W, 1e-8).ok


# The input rules of every matrix entry point, checked through
# symplectic_diag, which always runs the exact definiteness floor, and
# symplectic_eigenvalues, which certifies it from delta_1.
def test_validate_pd_symmetrizes_mild_noise():
    A = random_pd(2, seed=0)
    A[0, 1] += 1e-12
    S = 0.5 * (A + A.T)
    np.testing.assert_array_equal(symplectic_eigenvalues(A),
                                  symplectic_eigenvalues(S))
    np.testing.assert_array_equal(symplectic_diag(A, geometric_mean()),
                                  symplectic_diag(S, geometric_mean()))


def test_validate_pd_rejections():
    A = np.eye(2)
    A[0, 0] = np.nan
    for bad, match in ((np.eye(3), "square of even order"),
                       (np.array([[1.0, 0.5], [-0.5, 1.0]]), "not symmetric"),
                       (np.diag([1.0, -2.0]), "not positive definite"),
                       (np.diag([1.0, 0.0]), "not positive definite"),
                       (A, "non-finite")):
        for call in (lambda M: symplectic_diag(M, geometric_mean()),
                     symplectic_eigenvalues):
            with pytest.raises(DomainError, match=match):
                call(bad)


@pytest.mark.parametrize("call, end, want", [
    (lambda: symplectic_diag(np.full((2, 2), 1.7e308), geometric_mean()),
     2, "3.400e+308"),
    (lambda: symplectic_diag(np.full((2, 2), -1.7e308), geometric_mean()),
     1, "-3.400e+308"),
    (lambda: horn_symplectic_realize([1e308, 1e308], [1e308, 1e-300],
                                     geometric_mean()), 2, "3.732e+308"),
], ids=["diag", "negated diag", "realize"])
def test_definiteness_message_prints_an_overflowing_end(call, end, want):
    # At the parent this end read inf or -inf: c times U's extreme
    # eigenvalue is past the double range, so it is printed exactly.
    with pytest.raises((DomainError, NumericalError)) as info:
        call()
    found = re.search(r"not positive definite \(eigenvalue range "
                      r"\[(\S+), (\S+)\]\)$", str(info.value))
    assert found, str(info.value)
    assert found[end] == want


def test_validate_pd_asymmetry_bound_is_relative():
    B = 1e-10 * np.array([[1.0, 0.5], [-0.5, 1.0]])
    for c in (1.0, 1e6, 1e10):
        for call in (lambda M: symplectic_diag(M, geometric_mean()),
                     symplectic_eigenvalues):
            with pytest.raises(DomainError, match="not symmetric"):
                call(c * B)


@pytest.mark.parametrize("c", [1e160, 1e200, 1.5e308])
def test_huge_scale_residuals_are_checked(c):
    # Norms of such matrices overflow unless rescaled; a non-finite
    # residual must never pass the reconstruction check.
    A0 = random_pd(2, seed=1, spread=0.5)
    try:
        f = williamson(c * A0)
    except SympectraError:
        return
    np.testing.assert_allclose(f.delta / c, symplectic_eigenvalues(A0),
                               rtol=1e-13)
    assert np.isfinite(f.residual) and f.residual <= 1e-8
    assert np.isfinite(f.symplectic_residual)


def test_symplectic_diag_examples():
    A = np.array([[2.0, 1.0], [1.0, 8.0]])
    np.testing.assert_allclose(symplectic_diag(A, geometric_mean()), [4.0])
    np.testing.assert_allclose(symplectic_diag(A, arithmetic_mean()), [5.0])
    for mean in (geometric_mean(), arithmetic_mean(), max_mean(),
                 parse_mean("power:3")):
        np.testing.assert_allclose(symplectic_diag(2.5 * np.eye(6), mean),
                                   [2.5, 2.5, 2.5], rtol=1e-14)


def test_symplectic_diag_keeps_coordinate_order():
    A = np.diag([5.0, 1.0, 2.0, 7.0, 3.0, 4.0])
    got = symplectic_diag(A, arithmetic_mean())
    np.testing.assert_allclose(got, [(5 + 7) / 2, (1 + 3) / 2, (2 + 4) / 2])


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_delta_matches_independent_reference(n):
    A = random_pd(n, seed=100 + n)
    d = symplectic_eigenvalues(A)
    np.testing.assert_allclose(d, jA_moduli(A), rtol=1e-12)
    if n == 1:
        np.testing.assert_allclose(d, [np.sqrt(np.linalg.det(A))], rtol=1e-14)


def test_williamson_exactly_degenerate_spectrum():
    # A = W W^T has delta = 1 with multiplicity n: one n-dimensional
    # eigenspace of iK, from which any orthonormal basis must give a W.
    W0 = random_symplectic(8, seed=2, spread=0.2)
    A = W0 @ W0.T
    f = williamson(A)
    np.testing.assert_allclose(f.delta, np.ones(8), atol=1e-13)
    assert f.residual < 1e-13
    assert f.symplectic_residual < 1e-13


def _clustered_spectra(n, gap):
    """delta with clusters split by ``gap`` (relative): n / 2 clusters of
    two, one chain of n, and a chain of n / 2 beside n / 2 far values."""
    base = np.geomspace(0.5, 2.0, n)
    return {
        "pairs": np.repeat(base[::2], 2) * np.tile([1.0, 1.0 + gap], n // 2),
        "chain": 1.0 + gap * np.arange(n),
        "half": np.concatenate([1.0 + gap * np.arange(n // 2), 3.0 * base[n // 2:]]),
    }


def _check_williamson(A, delta, bound):
    f = williamson(A)
    assert f.residual <= bound and f.symplectic_residual <= bound
    assert is_symplectic(f.W, DEFAULT_TOL).ok
    np.testing.assert_allclose(reconstruct(f), A,
                               atol=bound * np.linalg.norm(A))
    np.testing.assert_allclose(f.delta, np.sort(delta), rtol=1e-8)


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-5, 1e-3])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_williamson_clustered_sweep(n, gap):
    # Gaps below 1e-4 delta_n are solved as clusters, the rest as isolated
    # pairs; either way the contract holds at DEFAULT_TOL, with residuals
    # far below it.
    for seed, delta in enumerate(_clustered_spectra(n, gap).values()):
        _check_williamson(_congruent(delta, seed, 0.5), delta, 1e-10)


@pytest.mark.parametrize("case", ["log-uniform", "S S^T"])
def test_williamson_at_n_200(case):
    n = 200
    if case == "S S^T":
        S = random_symplectic(n, seed=3, spread=0.5)
        A, delta = S @ S.T, np.ones(n)
    else:
        rng = np.random.default_rng(200)
        delta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
        A = _congruent(delta, 4, 0.3)
    _check_williamson(A, delta, 1e-10)


def test_williamson_kernels_follow_the_clusters(monkeypatch):
    none = {"cholesky": 1, "eigvalsh": 0, "eigh": 0, "svd": 0, "svd_uv": 0}
    # One cluster (A = S S^T, all delta = 1) is caught before any svd and
    # solved as the Hermitian iK.
    S = random_symplectic(4, seed=2, spread=0.5)
    calls = _kernel_calls(monkeypatch)
    williamson(S @ S.T)
    assert calls == {**none, "eigh": 1}
    # Two clusters of two pairs beside one isolated pair: one svd with
    # vectors, and one small Hermitian eigensolve per cluster.
    calls = _kernel_calls(monkeypatch)
    williamson(_congruent(np.array([1.0, 1.0 + 1e-9, 2.0, 2.0, 3.0]), 1, 0.5))
    assert calls == {**none, "eigh": 2, "svd_uv": 1}
    # A single pair is never split, so it always takes the svd.
    calls = _kernel_calls(monkeypatch)
    williamson(np.diag([2.0, 8.0]))
    assert calls == {**none, "svd_uv": 1}


def test_near_singular_input_raises_typed_error():
    # Relatively singular inputs fail validation; absolutely tiny but
    # well-conditioned ones pass, since every floor is relative to delta_n.
    # Whatever is returned must be finite.
    A = np.diag([1.0, 1e-15])
    with pytest.raises(SympectraError):
        symplectic_eigenvalues(A)
    with pytest.raises(SympectraError):
        williamson(A)
    A = 1e-15 * np.eye(4)
    for d in (symplectic_eigenvalues(A), williamson(A).delta):
        np.testing.assert_allclose(d, [1e-15, 1e-15], rtol=4e-16)
    B = np.random.default_rng(0).normal(size=(4, 3))
    for k in range(6, 18):
        A = B @ B.T + 10.0 ** -k * np.eye(4)
        try:
            d = symplectic_eigenvalues(A)
        except SympectraError:
            continue
        assert np.all(np.isfinite(d)) and np.all(d > 0)


def test_no_route_uses_real_schur(monkeypatch):
    def schur(*args, **kwargs):
        raise AssertionError("scipy.linalg.schur was called")

    monkeypatch.setattr(scipy.linalg, "schur", schur)
    A = random_pd(3, seed=4)
    np.testing.assert_allclose(symplectic_eigenvalues(A), jA_moduli(A),
                               rtol=1e-12)
    assert williamson(A).residual < 1e-12
    assert schur_check(A, geometric_mean()).verdict
    B = horn_symplectic_realize([2.0, 2.0], [1.0, 2.0], geometric_mean())
    np.testing.assert_allclose(symplectic_eigenvalues(B), [1.0, 2.0],
                               rtol=1e-12)


# --- definiteness certified by delta_1 -------------------------------------

def _with_ratio(n, ratio, seed):
    """Random symmetric matrix with eigenvalues spread over [ratio, 1]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    lam = np.geomspace(ratio, 1.0, 2 * n)
    rng.shuffle(lam)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def _certificate_sweep():
    cases = [random_pd(n, seed=n, spread=1.0) for n in (1, 2, 4, 16)]
    for n in (1, 2, 4):
        for ratio in (1e-10, 1e-12, 1e-14, 1e-16, 5e-14, 2e-13):
            cases.append(_with_ratio(n, ratio, seed=n))
        Q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(2 * n, 2 * n)))
        for lam0 in (-1.0, -1e-15, 0.0):     # indefinite and singular
            lam = np.linspace(1.0, 2.0, 2 * n)
            lam[0] = lam0
            B = (Q * lam) @ Q.T
            cases.append(0.5 * (B + B.T))
    return cases


def _domain_message(f):
    try:
        f()
    except DomainError as exc:
        return str(exc)
    except SympectraError:
        pass
    return None


def test_certified_entry_points_reject_as_validate_pd():
    # symplectic_diag has no spectrum to certify from and always runs the
    # exact floor check: the reference message.
    mean = arithmetic_mean()
    entries = [
        lambda A: symplectic_eigenvalues(A),
        lambda A: williamson(A),
        lambda A: schur_check(A, mean),
        lambda A: kyfan_minimizer(A, 1, mean),
        lambda A: kyfan_search(A, 1, mean, budget=8),
    ]
    cases = _certificate_sweep()
    rejected = 0
    for A in cases:
        expected = _domain_message(lambda: symplectic_diag(A, mean))
        rejected += expected is not None
        for entry in entries:
            assert _domain_message(lambda: entry(A)) == expected
    assert 0 < rejected < len(cases)


def test_realization_rejects_as_validate_pd(monkeypatch):
    # The verification step sees the realized matrix on its unit pair; a
    # spy on the spectrum bound, which every realization reaches, hands c
    # times that matrix (the one the call returns) to the exact check of
    # symplectic_diag, whose message the 'assemble' stage must carry.
    seen = []
    spectrum_bound = schur_horn._spectrum_bound

    def spy(A, *args):
        seen.append(np.array(A))
        return spectrum_bound(A, *args)

    monkeypatch.setattr(schur_horn, "_spectrum_bound", spy)
    outcomes = set()
    for k in range(4, 16):
        for t in (1.0, 1e3):
            seen.clear()
            try:
                horn_symplectic_realize([t, t], [1.0, 10.0 ** -k],
                                        geometric_mean())
                got = None
            except NumericalError as exc:
                got = str(exc)
            c = _pow2_scale(t)
            expected = _domain_message(
                lambda: symplectic_diag(c * seen[0], geometric_mean()))
            if expected is None:
                assert got is None or "'assemble'" not in got
            else:
                expected = expected.replace("matrix", "realized matrix", 1)
                assert got == f"stage 'assemble': {expected}"
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def _count_real_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if not np.iscomplexobj(a):
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_certificate_skips_eigvalsh_of_a(monkeypatch):
    A = random_pd(4, seed=9)
    mean = geometric_mean()
    calls = _count_real_eigvalsh(monkeypatch)
    symplectic_eigenvalues(A)
    williamson(A)
    schur_check(A, mean)
    kyfan_minimizer(A, 2, mean)
    kyfan_search(A, 2, mean, budget=8)
    horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], mean)
    assert calls == []
    symplectic_diag(A, mean)
    assert calls == [(8, 8)]


def test_failed_certificate_runs_the_exact_check(monkeypatch):
    calls = _count_real_eigvalsh(monkeypatch)
    # delta_1 / ||A||_F = 1e-6 is below the certificate's 3.2e-6, though
    # lambda_min / lambda_max = 1e-12 clears the floor.
    np.testing.assert_allclose(symplectic_eigenvalues(np.diag([1.0, 1e-12])),
                               [1e-6], rtol=1e-12)
    assert calls == [(2, 2)]
    calls.clear()
    with pytest.raises(DomainError, match="not positive definite"):
        williamson(np.diag([1.0, -1.0, 1.0, 1.0]))   # Cholesky fails
    assert calls == [(4, 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_delta1_squared_bounded_by_extreme_eigenvalues(n):
    # Ky Fan at k = 1: delta_1^2 <= lambda_min lambda_max.
    for seed in range(25):
        A = random_pd(n, seed=seed, spread=0.5 + seed / 5)
        S = random_symplectic(n, seed=seed, spread=0.3)
        A = S @ A @ S.T
        A = 0.5 * (A + A.T)
        lam = np.linalg.eigvalsh(A)
        d1 = symplectic_eigenvalues(A)[0]
        assert d1 * d1 <= lam[0] * lam[-1] * (1 + 1e-10)


def test_williamson_reconstruction_check_raises(monkeypatch):
    basis = spectral._symplectic_basis
    monkeypatch.setattr(spectral, "_symplectic_basis",
                        lambda *args: 2.0 * basis(*args))
    with pytest.raises(NumericalError,
                       match="^Williamson reconstruction residual"):
        williamson(random_pd(2, seed=0))


def test_williamson_symplecticity_check_raises(monkeypatch):
    # Flipping one column of W keeps W (D oplus D) W^T but breaks W^T J W = J.
    basis = spectral._symplectic_basis

    def flipped(*args):
        W = basis(*args)
        W[:, 0] *= -1.0
        return W

    monkeypatch.setattr(spectral, "_symplectic_basis", flipped)
    with pytest.raises(NumericalError,
                       match="^Williamson factor failed symplecticity"):
        williamson(random_pd(2, seed=0))


def test_pairing_checks_raise():
    # delta_1 / delta_n = 1.5e-13 is below the pairing floor 1e3 eps, though
    # the matrix clears the definiteness floor.
    with pytest.raises(NumericalError, match="eigenvalue pairing failure"):
        symplectic_eigenvalues(np.diag([1.5e-13, 1.0, 1.5e-13, 1.0]))
    with pytest.raises(NumericalError,
                       match="^stage 'spectrum': eigenvalue pairing failure"):
        horn_symplectic_realize([1.0, 1.5e-13], [1.0, 1.5e-13], geometric_mean())
    with pytest.raises(NumericalError, match=r"\+- halves differ"):
        symplectic_eigenvalues(random_pd(2, seed=0), tol=1e-300)


def _kernel_calls(monkeypatch):
    """Counts of Cholesky, complex eigvalsh, complex eigh, values-only svd
    and svd-with-vectors calls, from cold: spectral's reuse entry starts
    empty.

    The delta route takes the values-only svd of K, the Williamson route
    its svd with vectors, and complete_to_symplectic's orthonormal basis
    an svd with vectors of its projector."""
    monkeypatch.setattr(spectral, "_LAST", None)
    calls = {"cholesky": 0, "eigvalsh": 0, "eigh": 0, "svd": 0, "svd_uv": 0}
    kernels = {name: getattr(np.linalg, name) for name in calls if name != "svd_uv"}

    def counting(name):
        def wrapped(a, *args, **kwargs):
            if name == "svd":
                values_only = kwargs.get("compute_uv") is False
                calls["svd" if values_only else "svd_uv"] += 1
            elif name == "cholesky":
                calls[name] += 1
            else:
                calls[name] += np.iscomplexobj(a)
            return kernels[name](a, *args, **kwargs)
        return wrapped

    for name in kernels:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def test_delta_only_calls_take_one_real_svd(monkeypatch):
    A = random_pd(4, seed=9)
    mean = geometric_mean()
    none = {"cholesky": 0, "eigvalsh": 0, "eigh": 0, "svd": 0, "svd_uv": 0}
    for call in (lambda: symplectic_eigenvalues(A),
                 lambda: schur_check(A, mean),
                 lambda: kyfan_search(A, 2, mean, budget=8)):
        calls = _kernel_calls(monkeypatch)
        call()
        assert calls == {**none, "cholesky": 1, "svd": 1}
    # The Williamson route takes the real svd of K with vectors, and no
    # complex array, on a spectrum with no cluster; the completion keeps
    # the Hermitian eigensolve of its complement's skew form.
    X = kyfan_minimizer(A, 2, mean).minimizer
    for call, want in ((lambda: williamson(A), {"cholesky": 1, "svd_uv": 1}),
                       (lambda: kyfan_minimizer(A, 2, mean),
                        {"cholesky": 1, "svd_uv": 1}),
                       (lambda: complete_to_symplectic(X),
                        {"eigh": 1, "svd_uv": 1})):
        calls = _kernel_calls(monkeypatch)
        call()
        assert calls == {**none, **want}
    # A realization proves its spectrum from its own Williamson factor: no
    # decomposition of any kind, real or complex, with or without vectors.
    seen = []
    for name in ("cholesky", "eigvalsh", "eigh", "svd"):
        def refused(*args, _name=name, **kwargs):
            seen.append(_name)
            raise AssertionError(f"np.linalg.{_name} called")
        monkeypatch.setattr(np.linalg, name, refused)
    horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], mean)
    x = np.linspace(1.0, 4.0, 16)
    horn_symplectic_realize(x + 0.5, x, mean)
    assert seen == []


@pytest.mark.parametrize("first, again", [
    (lambda A, m: symplectic_eigenvalues(A), lambda A, m: schur_check(A, m)),
    (lambda A, m: schur_check(A, m), lambda A, m: schur_check(A, m)),
    (lambda A, m: schur_check(A, m), lambda A, m: kyfan_search(A, 2, m, budget=8)),
    (lambda A, m: williamson(A), lambda A, m: kyfan_minimizer(A, 2, m)),
    (lambda A, m: kyfan_minimizer(A, 1, m), lambda A, m: williamson(A)),
    # A proved realization reads no matrix through spectral, so the entry
    # still holds A.
    (lambda A, m: (symplectic_eigenvalues(A),
                   horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], m)),
     lambda A, m: schur_check(A, m)),
], ids=["eig-schur", "schur-schur", "schur-search", "williamson-kyfan",
        "kyfan-williamson", "eig-realize-schur"])
def test_a_repeat_on_the_same_matrix_and_tol_takes_no_kernel(monkeypatch, first,
                                                             again):
    A, mean = random_pd(4, seed=9), geometric_mean()
    calls = _kernel_calls(monkeypatch)
    first(A, mean)
    calls.update(dict.fromkeys(calls, 0))
    monkeypatch.setattr(np.linalg, "cholesky", None)  # a factoring call fails
    again(A, mean)
    assert calls == {"cholesky": 0, "eigvalsh": 0, "eigh": 0, "svd": 0,
                     "svd_uv": 0}


@pytest.mark.parametrize("route, kernel", [
    (symplectic_eigenvalues, "svd"), (williamson, "svd_uv")])
def test_another_tol_bit_or_layout_is_factored_afresh(monkeypatch, route,
                                                           kernel):
    A = random_pd(4, seed=9)
    B = A.copy()
    B[1, 1] = np.nextafter(B[1, 1], 2.0)
    calls = _kernel_calls(monkeypatch)
    for args in ((A,), (A, 1e-9), (B,), (A,), (np.asfortranarray(A),)):
        route(*args)
    assert calls[kernel] == calls["cholesky"] == 5


@pytest.mark.parametrize("first, then", [
    (lambda A, m, tol: symplectic_eigenvalues(A, tol),
     lambda A, m, tol: williamson(A, tol)),
    (lambda A, m, tol: williamson(A, tol),
     lambda A, m, tol: schur_check(A, m, tol)),
    (lambda A, m, tol: kyfan_minimizer(A, 2, m, tol),
     lambda A, m, tol: symplectic_eigenvalues(A, tol)),
], ids=["eig-williamson", "williamson-schur", "kyfan-eig"])
def test_the_two_routes_share_one_cholesky(monkeypatch, first, then):
    # The second route solves K again, from the R and K the first formed;
    # another matrix, bit, layout or tol is factored afresh.
    A, mean = random_pd(4, seed=9), geometric_mean()
    B = A.copy()
    B[1, 1] = np.nextafter(B[1, 1], 2.0)
    for other, tol, cholesky in ((A, 1e-8, 1), (random_pd(4, seed=10), 1e-8, 2),
                                 (B, 1e-8, 2), (np.asfortranarray(A), 1e-8, 2),
                                 (A, 1e-9, 2)):
        calls = _kernel_calls(monkeypatch)
        first(A, mean, 1e-8)
        then(other, mean, tol)
        assert calls["cholesky"] == cholesky


def test_the_delta_route_never_answers_from_the_williamson_factor(monkeypatch):
    # LAPACK takes another path for the singular values when it also forms
    # the vectors, so the two routes' delta can differ in the last bits (19
    # of 20 random_pd draws at n = 2 to 64 do): a delta-only call after
    # williamson(A) solves for its own.
    A = random_pd(4, seed=9)
    calls = _kernel_calls(monkeypatch)
    williamson(A)
    symplectic_eigenvalues(A)
    assert calls == {"cholesky": 1, "eigvalsh": 0, "eigh": 0, "svd": 1,
                     "svd_uv": 1}


def _hermitian_delta(A):
    """The complex Hermitian route, formed here: the positive eigenvalues
    of iK for the library's K = G - G^T, G = R_1^T R_2, on A's unit form."""
    n = A.shape[0] // 2
    c = 2.0 ** (np.frexp(np.abs(A).max())[1] - 1)
    R = np.linalg.cholesky(A / c)
    G = R[:n].T @ R[n:]
    return c * np.linalg.eigvalsh(1j * (G - G.T))[n:]


def _congruent(delta, seed, spread):
    W = random_symplectic(len(delta), seed=seed, spread=spread)
    A = (W * np.concatenate([delta, delta])) @ W.T
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("family", ["random_pd", "degenerate", "geomspace"])
def test_svd_delta_matches_the_hermitian_eigensolve(family):
    eps = np.finfo(float).eps
    if family == "random_pd":
        cases = [random_pd(n, seed=s) for n in (1, 2, 4, 16, 64)
                 for s in range(3)]
    elif family == "degenerate":
        cases = [_congruent(np.repeat([0.5, 2.0], n), s, 0.5)
                 for n in (1, 2, 4, 8) for s in range(3)]
        cases += [_congruent(np.full(n, 3.0), s, 0.5)
                  for n in (2, 4, 8) for s in range(3)]
    else:
        cases = [_congruent(np.geomspace(1e-5, 1e5, n), s, 0.3)
                 for n in (2, 4, 8) for s in range(3)]
    for A in cases:
        n = A.shape[0] // 2
        want = _hermitian_delta(A)
        got = symplectic_eigenvalues(A)
        assert np.abs(got - want).max() <= 10 * n * eps * want[-1]


def test_unpaired_singular_values_raise(monkeypatch):
    svd = np.linalg.svd

    def unpaired(a, *args, **kwargs):
        s = svd(a, *args, **kwargs)
        s[1::2] *= 1.0 - 1e-6   # each pair's second member moves
        return s

    monkeypatch.setattr(np.linalg, "svd", unpaired)
    with pytest.raises(NumericalError,
                       match=r"^eigenvalue pairing failure: \+- halves differ"):
        symplectic_eigenvalues(random_pd(2, seed=0))


def test_cholesky_failure_past_the_definiteness_floor_raises(monkeypatch):
    def cholesky(a):
        raise np.linalg.LinAlgError("injected")

    A = random_pd(2)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    with pytest.raises(NumericalError, match="Cholesky factorization failed"):
        symplectic_eigenvalues(A)
