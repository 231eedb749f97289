import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympectra import DomainError, NumericalError
from sympectra.io import parse_vector
from sympectra.majorization import (MAJORIZATION_TOL, _horn_realize,
                                    _read_pair, intermediate_vector,
                                    majorize, weak_supermajorize)
from sympectra.means import geometric_mean
from sympectra.schur_horn import horn_symplectic_realize


def givens_chain(z, y, tol=MAJORIZATION_TOL):
    """The realization's Givens chain, run as the realization runs it: on
    the unit pair of z and y.  U is orthogonal, so it has no units."""
    z, y, c = _read_pair(z, y)
    return _horn_realize(z / c, y / c, tol)[0]


def admissible_pair(rng, n, noise=1.0):
    """Random (x, y) with y positive and x weakly supermajorized by y.

    z is an average of permutations of y (hence majorized by y); adding
    nonnegative noise to z preserves the weak relation.
    """
    y = rng.uniform(0.2, 3.0, size=n)
    z = np.zeros(n)
    m = rng.integers(1, 5)
    for _ in range(m):
        z += y[rng.permutation(n)]
    z /= m
    x = z + noise * rng.uniform(0.0, 1.0, size=n) * rng.integers(0, 2, size=n)
    return x, y


def test_weak_supermajorize_hand_examples():
    rep = weak_supermajorize([2.0, 2.0], [1.0, 2.0])
    assert rep.verdict
    np.testing.assert_allclose(rep.k_slacks, [1.0, 1.0])
    rep = weak_supermajorize([1.0, 2.0], [0.5, 3.0])
    assert not rep.verdict
    np.testing.assert_allclose(rep.k_slacks, [0.5, -0.5])
    rep = weak_supermajorize([3.0, 1.0, 2.0], [3.0, 1.0, 2.0])
    assert rep.verdict
    np.testing.assert_allclose(rep.k_slacks, 0.0, atol=0)


def test_majorize_hand_examples():
    assert majorize([1.0, 3.0], [0.0, 4.0]).verdict
    rep = majorize([2.0, 2.0], [1.0, 2.0])
    assert not rep.verdict and rep.total_gap == pytest.approx(1.0)
    assert majorize([2.0, 1.0, 3.0], [3.0, 2.0, 1.0]).verdict  # permutation


def test_reports_carry_kind_and_threshold():
    rep = weak_supermajorize([2.0, 2.0], [1.0, 2.0], tol=1e-6)
    assert rep.kind == "weak_super"
    assert rep.threshold == pytest.approx(1e-6 * 7.0)
    assert majorize([1.0], [1.0]).kind == "majorize"


def test_verdicts_do_not_change_under_power_of_two_scaling():
    # Slack -1e-9 against sizes near 6: false at 1e-10, true at 1e-9, at
    # every scale; an absolute floor made it true below 2^-33.
    rng = np.random.default_rng(7)
    pairs = [([1.0, 2.0], [1.0 + 1e-9, 2.0]), ([2.0, 2.0], [1.0, 2.0])]
    pairs += [admissible_pair(rng, n, noise) for n in (1, 3, 5)
              for noise in (0.0, 1.0)]
    for x, y in pairs:
        x, y = np.asarray(x), np.asarray(y)
        for check in (weak_supermajorize, majorize):
            for tol in (1e-9, MAJORIZATION_TOL):
                unit = check(x, y, tol)
                for e in (-1000, -200, -40, 40, 200, 1000):
                    rep = check(2.0 ** e * x, 2.0 ** e * y, tol)
                    assert rep.verdict == unit.verdict, (x, y, e)
                    assert rep.threshold == 2.0 ** e * unit.threshold
    assert not weak_supermajorize([1.0, 2.0], [1.0 + 1e-9, 2.0]).verdict
    assert weak_supermajorize([1.0, 2.0], [1.0 + 1e-9, 2.0], 1e-9).verdict


def test_componentwise_domination_implies_weak_super():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.uniform(0.1, 5.0, size=6)
        x = y + rng.uniform(0.0, 2.0, size=6)
        assert weak_supermajorize(x, y).verdict


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y = admissible_pair(rng, 7)
        base = weak_supermajorize(x, y)
        shuffled = weak_supermajorize(x[rng.permutation(7)],
                                      y[rng.permutation(7)])
        assert base.verdict == shuffled.verdict
        np.testing.assert_allclose(base.k_slacks, shuffled.k_slacks)


def test_transitivity_of_weak_super():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = admissible_pair(rng, 5)
        w, _ = admissible_pair(rng, 5)
        if (weak_supermajorize(x, y).verdict
                and weak_supermajorize(y, w).verdict):
            assert weak_supermajorize(x, w).verdict


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_reflexivity(xs):
    rep = majorize(xs, xs)
    assert rep.verdict and rep.total_gap == 0.0


def test_input_validation():
    with pytest.raises(DomainError):
        weak_supermajorize([1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        majorize([], [])
    with pytest.raises(DomainError):
        weak_supermajorize([np.inf, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="1-d"):
        weak_supermajorize([[1.0, 2.0]], [1.0, 2.0])


def test_intermediate_vector_hand_examples():
    z = intermediate_vector([2.0, 2.0], [1.0, 2.0])
    assert z.sum() == pytest.approx(3.0)
    assert np.all(z <= 2.0 + 1e-15) and np.all(z > 0)
    assert majorize(z, [1.0, 2.0]).verdict

    # already majorized: nothing to reduce
    np.testing.assert_array_equal(
        intermediate_vector([1.0, 3.0], [0.5, 3.5]), [1.0, 3.0])

    # n = 1 is forced
    np.testing.assert_allclose(intermediate_vector([5.0], [3.0]), [3.0])

    # Subnormal entries that the unit pair rounds: positivity is judged on
    # the vectors given, and z is capped in their units, so z <= x.
    for x, y in (([5e-324, 4.0], [4e-324, 4.0]), ([1.5e-323, 4.0], [2e-323, 4.0])):
        z = intermediate_vector(x, y)
        np.testing.assert_array_equal(z, x)
        assert majorize(z, y).verdict


def test_intermediate_vector_post_conditions_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        x, y = admissible_pair(rng, n)
        z = intermediate_vector(x, y)
        assert np.all(z <= x + 1e-12)
        assert np.all(z > 0)
        assert majorize(z, y).verdict


def test_intermediate_vector_keeps_coordinate_order():
    x = np.array([5.0, 1.0, 4.0])
    y = np.array([1.0, 2.0, 3.0])
    z = intermediate_vector(x, y)
    # untouched coordinates stay put; capped ones stay in place
    assert z[1] == x[1]
    assert z[0] == z[2]  # both capped at the common level


def test_intermediate_vector_rejects_bad_inputs():
    with pytest.raises(DomainError):
        intermediate_vector([1.0, 2.0], [0.5, 3.0])   # not weakly supermajorized
    with pytest.raises(DomainError):
        intermediate_vector([1.0, -2.0], [0.5, 0.5])  # negative entry
    with pytest.raises(DomainError):
        intermediate_vector([1.0, 2.0], [0.0, 1.0])   # y must be positive
    # Short of y by 5e-10 at k = 1: the capped z fails z majorized by y.
    with pytest.raises(DomainError, match="at k=1"):
        intermediate_vector([1 - 5e-10, 100.0], [1.0, 1.0])


def test_horn_realize_two_by_two():
    U = givens_chain([1.0, 3.0], [0.0, 4.0])
    M = (U * np.array([0.0, 4.0])) @ U.T
    np.testing.assert_allclose(np.diag(M), [1.0, 3.0], atol=1e-12)
    assert np.trace(M) == pytest.approx(4.0)
    assert np.linalg.det(M) == pytest.approx(0.0, abs=1e-12)
    assert abs(M[0, 1]) == pytest.approx(np.sqrt(3.0))


def test_horn_realize_constant_diagonal():
    y = np.array([1.0, 2.0, 3.0])
    U = givens_chain([2.0, 2.0, 2.0], y)
    M = (U * y) @ U.T
    np.testing.assert_allclose(np.diag(M), 2.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(M), y, atol=1e-12)


def test_horn_realize_sorted_fixed_point_is_identity():
    y = np.array([0.5, 1.5, 4.0])
    np.testing.assert_array_equal(givens_chain(y, y), np.eye(3))


def test_horn_realize_respects_given_orders():
    z = np.array([3.0, 1.0])
    y = np.array([4.0, 0.0])  # unsorted spectrum
    U = givens_chain(z, y)
    M = (U * y) @ U.T
    np.testing.assert_allclose(np.diag(M), z, atol=1e-12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(M)), [0.0, 4.0],
                               atol=1e-12)


def test_horn_realize_round_trip_sweep():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        y = rng.uniform(-2.0, 4.0, size=n)
        z = np.zeros(n)
        m = rng.integers(1, 4)
        for _ in range(m):
            z += y[rng.permutation(n)]
        z /= m
        U = givens_chain(z, y)
        M = (U * y) @ U.T
        assert np.linalg.norm(U.T @ U - np.eye(n)) <= 1e-9
        np.testing.assert_allclose(np.diag(M), z, atol=1e-9)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(M)), np.sort(y),
                                   atol=1e-9)


@pytest.mark.parametrize("n", [16, 64])
def test_horn_realize_dense_sizes_with_ties(n):
    # The realization's size in the dense benchmark, with ties in y (values
    # on a coarse grid) and in z: averaging a block of a permutation of y
    # is doubly stochastic, so z stays majorized by y.
    rng = np.random.default_rng(n)
    y = np.round(rng.uniform(0.5, 4.0, size=n) * 2.0) / 2.0
    z = 0.5 * (y[rng.permutation(n)] + y[rng.permutation(n)])
    z[: n // 4] = z[: n // 4].mean()
    U = givens_chain(z, y)
    M = (U * y) @ U.T
    assert np.linalg.norm(U.T @ U - np.eye(n)) <= 1e-9
    np.testing.assert_allclose(np.diag(M), z, atol=1e-9)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(M)), np.sort(y),
                               atol=1e-9)


def test_horn_realize_with_ties():
    U = givens_chain([2.0, 2.0], [2.0, 2.0])
    np.testing.assert_array_equal(U, np.eye(2))
    U = givens_chain([1.0, 1.0, 4.0], [1.0, 1.0, 4.0])
    np.testing.assert_array_equal(U, np.eye(3))


@pytest.mark.parametrize("z", [[1.0, 1.0, 2.0, 2.0], [1.5, 1.5, 1.5, 1.5]])
def test_horn_realize_exact_ties_meet_diagonal(z):
    y = np.array([1.0, 1.0, 2.0, 2.0])
    U = givens_chain(z, y)
    assert np.linalg.norm(U.T @ U - np.eye(4)) <= 1e-14
    np.testing.assert_allclose(np.einsum("ij,j,ij->i", U, y, U), z,
                               rtol=0, atol=1e-14)


def test_horn_realize_verification_raises():
    with pytest.raises(NumericalError,
                       match="diagonal realization failed verification"):
        givens_chain([1.5, 1.5], [1.0, 2.0], tol=1e-300)



_VECTOR_MESSAGE = "vector must be a non-empty array, 1-d with finite entries"
_GOOD = [2.0, 2.0], [1.0, 2.0]

VECTOR_CALLS = {
    "weak_supermajorize": weak_supermajorize,
    "majorize": majorize,
    "intermediate_vector": intermediate_vector,
    "horn_symplectic_realize": lambda x, y: horn_symplectic_realize(
        x, y, geometric_mean()),
    "parse_vector": lambda x, y: (parse_vector(json.dumps(x)),
                                  parse_vector(json.dumps(y))),
}


@pytest.mark.parametrize("name", sorted(VECTOR_CALLS))
def test_every_public_vector_entry_applies_the_one_rule(name):
    call = VECTOR_CALLS[name]
    call(*_GOOD)
    for bad in ([[1.0, 2.0]], [], [1.0, np.nan], [1.0, np.inf]):
        for args in ((bad, _GOOD[1]), (_GOOD[0], bad)):
            with pytest.raises(DomainError, match=re.escape(_VECTOR_MESSAGE)):
                call(*args)
