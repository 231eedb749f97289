import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from sympectra import DomainError, NumericalError, symplectic
from sympectra.majorization import (intermediate_vector, majorize,
                                    weak_supermajorize)
from sympectra.means import geometric_mean
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_objective, kyfan_search, schur_check)
from sympectra.spectral import (symplectic_diag, symplectic_eigenvalues,
                                williamson)
from sympectra.symplectic import (DEFAULT_TOL, complete_to_symplectic,
                                  expanding_sum, is_symplectic, random_pd,
                                  random_symplectic, s_pinching, standard_J)


def test_standard_J_identities():
    for n in (1, 2, 5):
        J = standard_J(n)
        np.testing.assert_array_equal(J.T, -J)
        np.testing.assert_array_equal(J @ J, -np.eye(2 * n))


def test_standard_J_splits_over_expanding_sum():
    got = expanding_sum([standard_J(2), standard_J(3)])
    np.testing.assert_array_equal(got, standard_J(5))


def test_standard_J_rejects_bad_order():
    with pytest.raises(DomainError):
        standard_J(0)


def test_J_itself_is_symplectic():
    ok, res = is_symplectic(standard_J(3))
    assert ok and res < 1e-15


def test_is_symplectic_detects_perturbation():
    W = random_symplectic(3, seed=0)
    ok, res = is_symplectic(W)
    assert ok and res < 1e-12
    W[0, 0] += 1e-4
    ok2, res2 = is_symplectic(W)
    assert not ok2 and res2 > 1e-5


def test_is_symplectic_verdict_past_norm_overflow():
    # ||W||_F^2 overflows for every W here; the verdict must not.
    for c in (1e160, 1e200, 1e300):
        assert not is_symplectic(c * np.eye(4)).ok
        assert is_symplectic(np.diag([c, c, 1.0 / c, 1.0 / c])).ok


def test_is_symplectic_rejects_odd_shapes():
    with pytest.raises(DomainError):
        is_symplectic(np.eye(3))
    # A 4-by-2 matrix is a frame: its columns are isotropic, not a pair.
    assert is_symplectic(np.ones((4, 2))) == (False, np.sqrt(2.0))
    with pytest.raises(DomainError, match="non-finite"):
        is_symplectic(np.diag([1.0, np.nan, 1.0, 1.0]))


def test_closure_under_group_operations():
    U = random_symplectic(2, seed=1)
    V = random_symplectic(3, seed=2)
    W = random_symplectic(3, seed=3)
    assert is_symplectic(W.T, 1e-8).ok
    assert is_symplectic(np.linalg.inv(W), 1e-8).ok
    assert is_symplectic(V @ W, 1e-8).ok
    assert is_symplectic(expanding_sum([U, V]), 1e-8).ok


def test_expanding_sum_preserves_eigenvalue_multiset():
    rng = np.random.default_rng(9)
    blocks = [rng.normal(size=(2 * n, 2 * n)) for n in (1, 2, 4)]
    ev_box = np.sort_complex(np.linalg.eigvals(expanding_sum(blocks)))
    ev_dir = np.sort_complex(np.linalg.eigvals(scipy.linalg.block_diag(*blocks)))
    np.testing.assert_allclose(ev_box, ev_dir, atol=1e-9)


def test_expanding_sum_is_a_permuted_direct_sum():
    # Exact: each block's rows/columns 1..m and m+1..2m move to its slot in
    # the first and second half of the interleaved order.
    rng = np.random.default_rng(10)
    blocks = [rng.normal(size=(2 * n, 2 * n)) for n in (2, 1, 3)]
    halves = [B.shape[0] // 2 for B in blocks]
    starts = np.cumsum([0] + [2 * m for m in halves[:-1]])
    perm = np.concatenate([s + np.arange(m) for s, m in zip(starts, halves)]
                          + [s + m + np.arange(m) for s, m in zip(starts, halves)])
    direct = scipy.linalg.block_diag(*blocks)
    np.testing.assert_array_equal(expanding_sum(blocks),
                                  direct[np.ix_(perm, perm)])


def test_expanding_sum_is_multiplicative():
    A1, A2 = random_symplectic(1, seed=5), random_symplectic(2, seed=6)
    B1, B2 = random_symplectic(1, seed=7), random_symplectic(2, seed=8)
    left = expanding_sum([A1, A2]) @ expanding_sum([B1, B2])
    right = expanding_sum([A1 @ B1, A2 @ B2])
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_expanding_sum_validates_blocks():
    with pytest.raises(DomainError):
        expanding_sum([])
    with pytest.raises(DomainError):
        expanding_sum([np.eye(3)])
    with pytest.raises(DomainError, match="non-finite"):
        expanding_sum([np.full((2, 2), np.nan), np.eye(2)])


def test_pinching_keeps_only_partition_blocks():
    A = random_pd(3, seed=2)
    C = s_pinching(A, [2, 1])
    n = 3
    # kept quadrant-diagonal blocks agree with A
    for r0 in (0, n):
        for c0 in (0, n):
            np.testing.assert_array_equal(C[r0:r0+2, c0:c0+2], A[r0:r0+2, c0:c0+2])
            assert C[r0+2, c0+2] == A[r0+2, c0+2]
            # cross-block positions are zeroed
            np.testing.assert_array_equal(C[r0:r0+2, c0+2], 0)
            np.testing.assert_array_equal(C[r0+2, c0:c0+2], 0)


def test_pinching_preserves_positive_definiteness():
    for seed in range(25):
        A = random_pd(3, seed=seed, spread=1.5)
        C = s_pinching(A, [1, 2])
        assert np.linalg.eigvalsh(C).min() > 0


def test_pinching_trivial_partition_is_identity_map():
    A = random_pd(2, seed=11)
    np.testing.assert_array_equal(s_pinching(A, [2]), A)


def test_pinching_is_idempotent():
    A = random_pd(3, seed=12)
    C = s_pinching(A, [1, 1, 1])
    np.testing.assert_array_equal(s_pinching(C, [1, 1, 1]), C)


def test_pinching_rejects_non_finite_input():
    for bad in (np.inf, -np.inf, np.nan):
        A = random_pd(2, seed=1)
        A[0, 3] = A[3, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            s_pinching(A, [1, 1])


@pytest.mark.parametrize("bad", [[2], [1, 1, 2], [0, 3], [-1, 4], []])
def test_pinching_rejects_bad_partitions(bad):
    A = random_pd(3, seed=1)
    with pytest.raises(DomainError):
        s_pinching(A, bad)


def test_frame_residual_shape_validation():
    with pytest.raises(DomainError):
        is_symplectic(np.ones((5, 2)))
    with pytest.raises(DomainError):
        is_symplectic(np.ones((4, 6)))  # k > n
    X = np.eye(4)[:, [0, 2]]
    X[1, 0] = np.nan
    for call in (is_symplectic, complete_to_symplectic):
        with pytest.raises(DomainError, match="non-finite"):
            call(X)


def test_frame_residual_past_norm_overflow():
    # ||(cX)^T J (cX) - J|| = c^2 ||X^T J X - J / c^2||, which is finite.
    X = random_symplectic(3, seed=1)[:, [0, 3]]
    X[0, 0] += 1e-3
    want = 1e200 * np.linalg.norm(X.T @ standard_J(3) @ X
                                  - 1e-200 * standard_J(1))
    assert is_symplectic(1e100 * X).residual == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [1e100, 1e160, 1e300])
def test_frame_residual_keeps_J_past_square_overflow(a):
    # Isotropic columns: X^T J X = 0, so the residual is ||J_2||_F.
    X = np.zeros((4, 2))
    X[0, 0] = X[1, 1] = a
    assert is_symplectic(X).residual == np.sqrt(2.0)
    # A genuine frame with columns of size a and 1/a.
    X = np.zeros((4, 2))
    X[0, 0], X[2, 1] = a, 1.0 / a
    assert is_symplectic(X).residual <= 1e-15
    assert is_symplectic(X).ok
    np.testing.assert_array_equal(complete_to_symplectic(X)[:, [0, 2]], X)
    assert is_symplectic(np.diag([a, 1.0 / a])).ok


def _dense_form_check(X):
    """Reference residual and verdict from the dense X^T J X - J."""
    n, k = X.shape[0] // 2, X.shape[1] // 2
    res = np.linalg.norm(X.T @ standard_J(n) @ X - standard_J(k))
    return res, res <= DEFAULT_TOL * max(1.0, np.linalg.norm(X) ** 2)


def _form_cases(n):
    """Random symplectic matrices and frames, Ky Fan frames, the symplectic
    diag(2^8 I, 2^-8 I) and a frame of it, and each one perturbed off the
    group, all of half-order n."""
    D = np.diag(np.repeat([2.0 ** 8, 2.0 ** -8], n))
    cases = [D, D[:, [0, n]]]
    for seed, spread in ((0, 0.3), (1, 1.0), (2, 2.0)):
        W = random_symplectic(n, seed=seed, spread=spread)
        cases += [W, W[:, [0, n]]]
    A = random_pd(n, seed=n, spread=1.0)
    for k in sorted({1, max(1, n // 2), n}):
        cases.append(kyfan_minimizer(A, k, geometric_mean()).minimizer)
    rng = np.random.default_rng(n)
    return cases + [X + 1e-3 * rng.normal(size=X.shape) for X in cases]


@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_form_check_matches_dense_product(n):
    eps = np.finfo(float).eps
    cases = _form_cases(n)
    # Frames and non-frames with 2 <= max |x_ij| < 2^240, where the raw
    # path once took its verdict on a power-of-two rescaling.
    assert {is_symplectic(X).ok for X in cases
            if 2.0 <= np.abs(X).max() < 2.0 ** 240} == {True, False}
    for X in cases:
        want, ok = _dense_form_check(X)
        bound = 8 * eps * max(1.0, np.linalg.norm(X) ** 2)
        got = is_symplectic(X)
        assert abs(got.residual - want) <= bound
        assert (got.residual <= DEFAULT_TOL * max(
            1.0, np.linalg.norm(X) ** 2)) == ok
        assert got.ok == ok


@pytest.mark.parametrize("n", [1, 2, 4])
def test_form_check_matches_dense_past_2_240(n):
    # Exact power-of-two scaling takes the per-column branch while the
    # dense product still fits in range.
    eps = np.finfo(float).eps
    for X in _form_cases(n):
        X = np.ldexp(X, 250)
        want, ok = _dense_form_check(X)
        got = is_symplectic(X)
        assert abs(got.residual - want) <= 8 * eps * np.linalg.norm(X) ** 2
        assert (got.residual <= DEFAULT_TOL * np.linalg.norm(X) ** 2) == ok
        assert got.ok == ok


@pytest.mark.parametrize("a", [1.0, 1e5, 2.0 ** 239, 2.0 ** 241, 1e300])
def test_isotropic_frame_residual_is_exactly_sqrt2(a):
    X = np.zeros((4, 2))
    X[0, 0] = X[1, 1] = a  # X^T J X = 0, so the residual is ||J_2||_F
    assert is_symplectic(X).residual == np.sqrt(2.0)


def test_completion_identity_frame():
    X = np.eye(4)[:, [0, 2]]
    W = complete_to_symplectic(X)
    assert is_symplectic(W).ok
    np.testing.assert_array_equal(W[:, [0, 2]], X)


def test_completion_full_frame_passthrough():
    W = random_symplectic(3, seed=4)
    np.testing.assert_array_equal(complete_to_symplectic(W), W)


def test_completion_random_frames_all_sizes():
    for n in (2, 3, 4, 6):
        for k in range(1, n):
            for seed in range(4):
                W0 = random_symplectic(n, seed=seed)
                cols = list(range(k)) + list(range(n, n + k))
                X = W0[:, cols]
                W = complete_to_symplectic(X)
                ok, res = is_symplectic(W, 1e-9)
                assert ok, (n, k, seed, res)
                # given columns are copied bit for bit
                np.testing.assert_array_equal(W[:, cols], X)


def test_completion_far_field_frames():
    # Far out in the non-compact group the frame columns are large and
    # nearly parallel; completion must still succeed.
    for spread in (2.0, 3.0):
        for n in (16, 32, 64):
            W0 = random_symplectic(n, seed=0, spread=spread)
            for k in (1, n // 2, n - 1):
                cols = list(range(k)) + list(range(n, n + k))
                X = W0[:, cols]
                W = complete_to_symplectic(X)
                assert is_symplectic(W).ok, (spread, n, k)
                np.testing.assert_array_equal(W[:, cols], X)


def _euler_matrix(rng, r):
    """O(U) (e^r oplus e^-r) O(V) for Haar-like unitaries U, V."""
    n = r.shape[0]

    def orthosymplectic():
        U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        return np.block([[U.real, -U.imag], [U.imag, U.real]])

    return orthosymplectic() @ np.diag(np.exp(np.r_[r, -r])) @ orthosymplectic()


def test_completion_far_field_euler_frames():
    # Squeezes up to e^26: ||W||_F^2 > 1e20 and the columns are nearly
    # parallel, far past what random_symplectic draws.
    rng = np.random.default_rng(0)
    for n in (16, 32, 64):
        W0 = _euler_matrix(rng, np.linspace(-26.0, 26.0, n))
        assert np.linalg.norm(W0) ** 2 >= 1e20
        for k in (1, n // 2, n - 1):
            cols = list(range(k)) + list(range(n, n + k))
            X = W0[:, cols]
            W = complete_to_symplectic(X)
            assert is_symplectic(W).ok, (n, k)
            np.testing.assert_array_equal(W[:, cols], X)


def test_completion_rejects_non_frame():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        complete_to_symplectic(rng.normal(size=(6, 2)))


def test_completion_verification_raises(monkeypatch):
    basis = symplectic._symplectic_basis
    monkeypatch.setattr(symplectic, "_symplectic_basis",
                        lambda *args: 2.0 * basis(*args))
    X = random_symplectic(3, seed=1)[:, [0, 3]]
    with pytest.raises(NumericalError,
                       match="^symplectic completion failed verification"):
        complete_to_symplectic(X)


def test_completion_refuses_a_degenerate_complement_without_warning():
    # 1e5 ones passes the frame check through its relative residual (1.41
    # against tol ||X||_F^2), but the skew form on its complement has a
    # +half eigenvalue 0: a typed refusal before D^(-1/2) divides by it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="skew form is degenerate"):
            complete_to_symplectic(1e5 * np.ones((8, 2)))


@pytest.mark.parametrize("v", [1e155, 1e200])
def test_completion_refuses_an_overflowing_projector_without_warning(v):
    # ||X||_F^2 overflows, so the relative frame check passes, and the
    # projector I + X J X^T J is past the double range: a typed refusal
    # instead of an overflow warning and an SVD that does not converge.
    X = np.zeros((4, 2))
    X[0, 0] = X[1, 1] = v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=(
                "^symplectic completion failed: the projector onto the "
                "complement is not finite")):
            complete_to_symplectic(X)


def test_random_symplectic_is_deterministic():
    np.testing.assert_array_equal(random_symplectic(3, seed=42),
                                  random_symplectic(3, seed=42))
    assert not np.array_equal(random_symplectic(3, seed=42),
                              random_symplectic(3, seed=43))


def test_random_symplectic_residual_sweep():
    for seed in range(1000):
        W = random_symplectic(3, seed=seed)
        assert is_symplectic(W, 1e-8).ok


def test_random_symplectic_singular_values_pair_up():
    # Singular values of a symplectic matrix come in pairs sigma, 1/sigma.
    for n in (1, 4, 16, 64):
        for spread in (0.5, 1.0, 3.0):
            for seed in range(5):
                W = random_symplectic(n, seed=seed, spread=spread)
                s = np.linalg.svd(W, compute_uv=False)
                assert np.abs(np.log(s * s[::-1])).max() <= 1e-8, (n, spread, seed)


def test_random_symplectic_small_spread_near_identity():
    W = random_symplectic(4, seed=0, spread=1e-9)
    assert np.linalg.norm(W - np.eye(8)) < 1e-7


def test_random_symplectic_rejects_nonpositive_spread():
    with pytest.raises(DomainError):
        random_symplectic(2, seed=0, spread=0.0)


@pytest.mark.parametrize("sampler", [random_pd, random_symplectic])
@pytest.mark.parametrize("spread", [np.inf, -np.inf, np.nan, 1e3, 1e300])
def test_samplers_refuse_a_spread_they_cannot_draw(sampler, spread):
    # An infinite spread, or a draw whose entries overflow, is refused with
    # no RuntimeWarning (warnings are errors here) and no non-finite rows.
    with pytest.raises(DomainError, match="^spread must be positive"):
        sampler(2, seed=0, spread=spread)


@pytest.mark.parametrize("sampler", [random_pd, random_symplectic])
def test_samplers_keep_finite_draws_at_large_spreads(sampler):
    # The largest spreads whose draws stay finite still return them.
    for spread in (5.0, 50.0):
        M = sampler(2, seed=1, spread=spread)
        assert np.isfinite(M).all()
        np.testing.assert_array_equal(M, sampler(2, seed=1, spread=spread))


@pytest.mark.parametrize("seed", [-1, 1.5, "x", [1, -2]])
def test_seeded_entry_points_refuse_a_bad_seed(seed):
    A = random_pd(2, seed=0)
    calls = (lambda: random_pd(2, seed=seed),
             lambda: random_symplectic(2, seed=seed),
             lambda: kyfan_search(A, 1, geometric_mean(), budget=8, seed=seed))
    message = "^seed must be .*" + re.escape(repr(seed))
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


def test_random_pd_properties():
    A = random_pd(3, seed=9)
    np.testing.assert_array_equal(A, A.T)
    assert np.linalg.eigvalsh(A).min() > 0
    np.testing.assert_array_equal(A, random_pd(3, seed=9))


def test_random_pd_draws_pass_the_floor_below_spread_15():
    # Conditioning up to e^28 = 1.4e12 stays inside the 1e-13 floor, which
    # e^(2 spread) passes at spread ln(1e13) / 2 = 15.
    for n in (1, 2, 4):
        for seed in range(20):
            A = random_pd(n, seed=seed, spread=14.0)
            assert symplectic_eigenvalues(A).shape == (n,)


def test_random_pd_spread_controls_conditioning():
    tight = np.linalg.cond(random_pd(4, seed=3, spread=0.1))
    wide = np.linalg.cond(random_pd(4, seed=3, spread=3.0))
    assert tight <= np.exp(0.2) + 1e-9
    assert wide > tight


# Every public entry that takes an array, as a function of that array
# (every other argument valid), by the kind of array it reads.
_G = geometric_mean()
_A2 = random_pd(2, seed=0)
_F = np.eye(4)[:, [0, 2]]
ARRAY_CALLS = {
    "matrix": {
        "symplectic_eigenvalues": symplectic_eigenvalues,
        "williamson": williamson,
        "symplectic_diag": lambda A: symplectic_diag(A, _G),
        "schur_check": lambda A: schur_check(A, _G),
        "kyfan_minimizer": lambda A: kyfan_minimizer(A, 1, _G),
        "kyfan_search": lambda A: kyfan_search(A, 1, _G, budget=8),
        "kyfan_objective": lambda A: kyfan_objective(A, _F, _G),
        "expanding_sum": lambda A: expanding_sum([A]),
        "s_pinching": lambda A: s_pinching(A, [1, 1]),
    },
    "frame": {
        "is_symplectic": is_symplectic,
        "complete_to_symplectic": complete_to_symplectic,
        "kyfan_objective": lambda X: kyfan_objective(_A2, X, _G),
    },
    "vector": {
        "weak_supermajorize": lambda x: weak_supermajorize(x, [1.0, 2.0]),
        "majorize": lambda x: majorize(x, [1.0, 2.0]),
        "intermediate_vector": lambda x: intermediate_vector(x, [1.0, 2.0]),
        "horn_symplectic_realize": lambda x: horn_symplectic_realize(
            x, [1.0, 2.0], _G),
    },
}
_GOOD_ARRAYS = {"matrix": _A2, "frame": _F, "vector": [2.0, 2.0]}
_BAD_ARRAYS = {
    "matrix": ([[1.0, 0.0], [0.0]], [[1.0, "a"], [0.0, 1.0]]),
    "frame": ([[1.0, 0.0], [0.0]], [[1.0, "a"], [0.0, 1.0]]),
    "vector": ([[2.0], [2.0, 1.0]], [2.0, "a"]),
}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ARRAY_CALLS
                                       for name in sorted(ARRAY_CALLS[kind])])
def test_every_public_array_entry_reads_real_numbers(kind, name):
    # At the parent a complex matrix lost its imaginary part with only a
    # ComplexWarning, and ragged or text entries raised numpy's ValueError.
    call, good = ARRAY_CALLS[kind][name], _GOOD_ARRAYS[kind]
    call(good)
    with pytest.raises(DomainError, match="has complex entries$"):
        call(np.asarray(good) + 1e-3j)
    for bad in _BAD_ARRAYS[kind]:
        with pytest.raises(DomainError, match=re.escape(
                "entries must be numbers in double range, in rows of one "
                "length")):
            call(bad)


# Every count argument of a public call, as a function of that count; each
# call is valid at 2.
_A3 = random_pd(3, seed=0)
COUNT_CALLS = {
    "standard_J": standard_J,
    "random_pd": random_pd,
    "random_symplectic": random_symplectic,
    "kyfan_minimizer": lambda k: kyfan_minimizer(_A2, k, _G),
    "kyfan_search k": lambda k: kyfan_search(_A2, k, _G, budget=8),
    "kyfan_search budget": lambda b: kyfan_search(_A2, 1, _G, budget=b),
    "s_pinching": lambda m: s_pinching(_A3, [m, 1]),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_every_count_is_an_integer(name):
    # At the parent 1.5 raised numpy's TypeError, and the partition read
    # [2.7, 1] as [2, 1] and "2" as 2, and pinched.
    COUNT_CALLS[name](2)
    for bad in (1.5, 2.7, "2"):
        with pytest.raises(DomainError, match="must be an integer, got"):
            COUNT_CALLS[name](bad)


def test_pinching_reads_no_text_partition():
    # At the parent "1" was read as the partition [1].
    with pytest.raises(DomainError, match="partition part must be an integer"):
        s_pinching(random_pd(1, seed=0), "1")
