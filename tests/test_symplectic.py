import numpy as np
import pytest
import scipy.linalg

from sympectra import DomainError, NumericalError
from sympectra.symplectic import (complete_to_symplectic, expanding_sum,
                                  expm_batch, frame_residual, is_symplectic,
                                  random_pd, random_symplectic, s_pinching,
                                  standard_J)


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
    with pytest.raises(DomainError):
        is_symplectic(np.ones((4, 2)))


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


@pytest.mark.parametrize("bad", [[2], [1, 1, 2], [0, 3], [-1, 4], []])
def test_pinching_rejects_bad_partitions(bad):
    A = random_pd(3, seed=1)
    with pytest.raises(DomainError):
        s_pinching(A, bad)


def test_frame_residual_shape_validation():
    with pytest.raises(DomainError):
        frame_residual(np.ones((5, 2)))
    with pytest.raises(DomainError):
        frame_residual(np.ones((4, 6)))  # k > n


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


def test_completion_rejects_non_frame():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        complete_to_symplectic(rng.normal(size=(6, 2)))


def test_random_symplectic_is_deterministic():
    np.testing.assert_array_equal(random_symplectic(3, seed=42),
                                  random_symplectic(3, seed=42))
    assert not np.array_equal(random_symplectic(3, seed=42),
                              random_symplectic(3, seed=43))


def test_random_symplectic_residual_sweep():
    for seed in range(1000):
        W = random_symplectic(3, seed=seed)
        assert is_symplectic(W, 1e-8).ok


def test_random_symplectic_small_spread_near_identity():
    W = random_symplectic(4, seed=0, spread=1e-9)
    assert np.linalg.norm(W - np.eye(8)) < 1e-7


def test_random_symplectic_rejects_nonpositive_spread():
    with pytest.raises(DomainError):
        random_symplectic(2, seed=0, spread=0.0)


def test_random_pd_properties():
    A = random_pd(3, seed=9)
    np.testing.assert_array_equal(A, A.T)
    assert np.linalg.eigvalsh(A).min() > 0
    np.testing.assert_array_equal(A, random_pd(3, seed=9))


def test_random_pd_spread_controls_conditioning():
    tight = np.linalg.cond(random_pd(4, seed=3, spread=0.1))
    wide = np.linalg.cond(random_pd(4, seed=3, spread=3.0))
    assert tight <= np.exp(0.2) + 1e-9
    assert wide > tight


def test_expm_batch_matches_scipy():
    rng = np.random.default_rng(7)
    H = rng.normal(scale=2.0, size=(6, 4, 4))  # 1-norms beyond theta: squaring path
    E = expm_batch(H)
    for i in range(H.shape[0]):
        np.testing.assert_allclose(E[i], scipy.linalg.expm(H[i]),
                                   rtol=1e-12, atol=1e-12)


def test_expm_batch_single_matrix_and_zero():
    np.testing.assert_allclose(expm_batch(np.zeros((3, 3))), np.eye(3),
                               atol=1e-15)
    H = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(expm_batch(H), scipy.linalg.expm(H), atol=1e-14)
