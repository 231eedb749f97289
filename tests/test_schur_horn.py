import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import sympectra.majorization
import sympectra.means
import sympectra.schur_horn
from sympectra import DomainError, NumericalError
from sympectra.majorization import weak_supermajorize
from sympectra.means import (MeanSpec, arithmetic_mean, custom_mean,
                             geometric_mean, harmonic_mean, max_mean, min_mean,
                             parse_mean, power_mean, validate_mean_axioms)
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_objective, kyfan_search, schur_check)
from sympectra.spectral import symplectic_diag, symplectic_eigenvalues, williamson
from sympectra.symplectic import (complete_to_symplectic, is_symplectic,
                                  random_pd, random_symplectic, standard_J)

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
    # Each call evaluates the n = 1 diagonal pair.  The first call also
    # vets the mean (three evaluations on the 10 000-point grid), and the
    # dominance is read from that report, which is kept on the spec.
    evaluated = []

    def heronian(a, b):
        evaluated.append(np.size(a))
        return (a + np.sqrt(a * b) + b) / 3.0

    mean = custom_mean(heronian)
    A = random_pd(1, seed=2)
    reports = [schur_check(A, mean)]
    assert sum(evaluated) == 3 * 10_000 + 1
    for _ in range(2):
        before = sum(evaluated)
        reports.append(schur_check(A, mean))
        assert sum(evaluated) == before + 1
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


def test_realize_round_trip_at_the_dense_size():
    # n = 64, the realization's size in the dense benchmark.
    x, y = admissible_pair(np.random.default_rng(64), 64)
    mean = geometric_mean()
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
    # M(a, a) = 2a breaks the construction, which needs M(a, a) = a; the
    # vet refuses it as input, as no mean.
    broken = custom_mean(lambda a, b: a + b)
    with pytest.raises(DomainError, match="custom mean is not between-valued"):
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
    calls = {"weak_supermajorize": 0, "_prefix_compare": 0}

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
    assert calls == {"weak_supermajorize": 0, "_prefix_compare": 1}


def test_realize_errors_name_their_stage_at_tiny_scale():
    # Either a valid realization or a NumericalError naming its stage.  In
    # the last two targets A's diagonal is subnormal: they are refused as
    # out of range, not as a failed Givens chain.  In the last, x is capped
    # at 2^-1070 14/3, a subnormal level that keeps only a few bits.
    e = 2.0 ** -1070
    for x, y in (([2e-200, 3e-200], [1e-200, 2e-200]),
                 ([3 * e, 4 * e, 5 * e], [2 * e, 5 * e, 5 * e]),
                 ([5 * e, 5 * e, 5 * e], [e, 2 * e, 11 * e])):
        try:
            A = horn_symplectic_realize(x, y, arithmetic_mean())
        except NumericalError as exc:
            assert str(exc).startswith(
                ("stage 'givens': ", "stage 'assemble': ", "stage 'spectrum': ",
                 "stage 'diag': ")), str(exc)
            if min(x) < np.finfo(float).tiny:
                assert str(exc).startswith(
                    "stage 'assemble': realized matrix is out of range: "
                    "it underflows"), str(exc)
        else:
            assert min(x) >= np.finfo(float).tiny
            np.testing.assert_allclose(symplectic_diag(A, arithmetic_mean()),
                                       x, rtol=1e-8)
            np.testing.assert_allclose(symplectic_eigenvalues(A), y, rtol=1e-8)


@pytest.mark.parametrize("name,stage", [("_horn_realize", "givens")])
def test_realize_names_the_stage_of_inner_numerical_errors(monkeypatch, name,
                                                           stage):
    def fail(*args):
        raise NumericalError("injected")
    monkeypatch.setattr(sympectra.schur_horn, name, fail)
    x, y = admissible_pair(np.random.default_rng(2), 3)
    with pytest.raises(NumericalError, match=f"^stage '{stage}': injected$"):
        horn_symplectic_realize(x, y, geometric_mean())


def test_realize_refuses_a_diagonal_off_target_at_diag(monkeypatch):
    # The realized diag_M, scaled by 1 + 1e-6, misses x past tol = 1e-8.
    diag_m = sympectra.schur_horn._diag_m
    monkeypatch.setattr(sympectra.schur_horn, "_diag_m",
                        lambda d, mean: diag_m(d, mean) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match=(
            "^stage 'diag': realized symplectic diagonal off by")):
        horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], geometric_mean())


def test_realize_rejects_bad_inputs():
    with pytest.raises(DomainError):
        horn_symplectic_realize([1.0, 2.0], [0.5, 3.0], geometric_mean())
    with pytest.raises(DomainError):
        horn_symplectic_realize([2.0, -2.0], [1.0, 2.0], geometric_mean())
    with pytest.raises(DomainError):
        horn_symplectic_realize([2.0], [1.0, 2.0], geometric_mean())
    with pytest.raises(DomainError):
        horn_symplectic_realize([1 - 5e-10, 100.0], [1.0, 1.0], geometric_mean())


def test_realize_refuses_large_ratios_at_spectrum():
    # A's conditioning grows like (x/z)^2.  The exact symplectic eigenvalues
    # of the matrix formed in doubles miss y by 3.3e-9 of max y at x = 1e4
    # and by 5.4e-5 at x = 1e6, so the refusal at 1e6 is correct.
    mean = geometric_mean()
    A = horn_symplectic_realize([1e4, 1e4], [1.0, 2.0], mean)
    np.testing.assert_allclose(symplectic_eigenvalues(A), [1.0, 2.0],
                               rtol=0, atol=2e-8)
    np.testing.assert_allclose(symplectic_diag(A, mean), [1e4, 1e4],
                               rtol=0, atol=1e-8 * 1e4)
    with pytest.raises(NumericalError, match="^stage 'spectrum'"):
        horn_symplectic_realize([1e6, 1e6], [1.0, 2.0], mean)


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
                assert is_symplectic(res.minimizer).residual <= 1e-8


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


def test_realize_rejects_nan_valued_mean():
    # A NaN-valued evaluator is no mean: vetting refuses it as input.
    nan_mean = custom_mean(lambda a, b: float("nan"))
    with pytest.raises(DomainError, match="custom mean is not symmetric"):
        horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], nan_mean)


def test_kyfan_calls_reject_nan_valued_mean():
    nan_mean = custom_mean(lambda a, b: float("nan"))
    A = random_pd(2, seed=1)
    with pytest.raises(DomainError, match="custom mean is not symmetric"):
        kyfan_search(A, 1, nan_mean, budget=8)
    with pytest.raises(DomainError, match="custom mean is not symmetric"):
        kyfan_minimizer(A, 1, nan_mean)
    with pytest.raises(DomainError, match="custom mean is not symmetric"):
        kyfan_objective(A, np.eye(4)[:, [0, 2]], nan_mean)


_A0 = random_pd(2, seed=0)
_A0 = _A0 / np.abs(_A0).max()


def _mean_entry_points(mean):
    """Every library call that takes a mean, as a function of A."""
    X = kyfan_minimizer(_A0, 1, geometric_mean()).minimizer
    return (lambda A: kyfan_objective(A, X, mean),
            lambda A: kyfan_minimizer(A, 1, mean),
            lambda A: kyfan_search(A, 1, mean, budget=8),
            lambda A: schur_check(A, mean),
            lambda A: symplectic_diag(A, mean),
            lambda A: horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], mean))


def test_non_mean_is_refused_by_every_entry_point():
    # M = (a + b) / 2 + 1 is symmetric but not homogeneous.  Scored on A's
    # power-of-two unit form it would jump at each power of two: at the
    # parent, kyfan_objective read 1.982, 2.983 and 5.966 at s = 1.999, 2
    # and 4, where the direct sum of M(b) is 1.982, 1.983 and 2.966.
    evaluated = []

    def affine(a, b):
        evaluated.append(np.size(a))
        return 0.5 * a + 0.5 * b + 1.0

    calls = _mean_entry_points(custom_mean(affine))
    for s in (1.999, 2.0, 4.0):
        for call in calls:
            with pytest.raises(DomainError,
                               match="custom mean is not homogeneous"):
                call(s * _A0)
    # Vetted once, on three 10 000-point grid evaluations; the refusal is kept.
    assert evaluated == [10_000] * 3


def _banded(inside, outside):
    """max(a, b) f(min / max) with f = inside on the band t = 2^-s,
    s in [0.1, 0.3], and outside elsewhere: symmetric and homogeneous, with
    a fault that only a grid finer than 0.2 in s sees."""
    def evaluator(a, b):
        big, small = np.maximum(a, b), np.minimum(a, b)
        t = small / big
        band = (t >= 2.0 ** -0.3) & (t <= 2.0 ** -0.1)
        return big * np.where(band, inside(t), outside(t))

    return custom_mean(evaluator)


# name -> (a factory of the spec, whether it passes the axioms, whether it
# dominates the geometric mean on the grid).
BANDED = {
    "above max on the band": (lambda: _banded(lambda t: 1.01 + 0.0 * t,
                                              np.sqrt), False, True),
    "below sqrt on the band": (lambda: _banded(lambda t: 0.999 * np.sqrt(t),
                                               lambda t: 0.5 + 0.5 * t),
                               True, False),
}


@pytest.mark.parametrize("name", sorted(BANDED))
def test_admission_and_dominance_read_one_report(name):
    # At the parent, admission and dominance read a 2000-point grid that
    # misses the band, while validate_mean_axioms read 10 000 points: the
    # first mean failed the report yet was admitted, and the second failed
    # the dominance yet schur_check reported mean_dominates_geometric.
    factory, passed, dominates = BANDED[name]
    rep = validate_mean_axioms(factory())
    assert rep.passed == passed
    mean = factory()
    for call in _mean_entry_points(mean):
        if rep.passed:
            call(_A0)
        else:
            with pytest.raises(DomainError, match="custom mean is not"):
                call(_A0)
    if rep.passed:
        assert schur_check(_A0, mean).mean_dominates_geometric == dominates
    assert rep.dominates_geometric.passed == dominates


def test_caller_built_spec_is_vetted_whatever_its_kind():
    # At the parent MeanSpec("arithmetic", a + b) was never vetted, and
    # kyfan_minimizer answered 2 delta_1 as the minimum; a caller's
    # dominance claim for min reached the report.
    forged = MeanSpec("arithmetic", lambda a, b: a + b)
    for call in _mean_entry_points(forged):
        with pytest.raises(DomainError, match=re.escape(
                "custom mean is not between-valued: (a, b, M(a, b)) = "
                "(1.0, 1.0, 2.0)")):
            call(_A0)
    with pytest.raises(TypeError):
        MeanSpec("custom", np.minimum, dominates_geometric_claim=True)
    plain_min = MeanSpec("min", np.minimum)
    assert plain_min.dominates_geometric_claim is None
    assert not schur_check(_A0, plain_min).mean_dominates_geometric


def test_replaced_spec_is_vetted():
    # At the parent dataclasses.replace kept a factory's claim on any
    # evaluator, so this forged spec skipped the vet and kyfan_minimizer
    # answered 2 delta_1 as the minimum.
    forged = dataclasses.replace(arithmetic_mean(), evaluator=lambda a, b: a + b)
    assert forged.dominates_geometric_claim is None
    for call in _mean_entry_points(forged):
        with pytest.raises(DomainError, match=re.escape(
                "custom mean is not between-valued: (a, b, M(a, b)) = "
                "(1.0, 1.0, 2.0)")):
            call(_A0)
    assert dataclasses.replace(harmonic_mean()).dominates_geometric_claim is None


def test_factory_specs_evaluate_no_grid(monkeypatch):
    # The vet and the entry points evaluate through means._evaluate, the
    # vet on its 10 000-point grid.  Built-in specs skip the vet, a custom
    # one takes it once: three grid evaluations.
    grid = []
    evaluate = sympectra.means._evaluate

    def spy(mean, a, b):
        if np.size(a) == 10_000:
            grid.append(np.size(a))
        return evaluate(mean, a, b)

    monkeypatch.setattr(sympectra.means, "_evaluate", spy)
    specs = [parse_mean(name) for name in
             ("arithmetic", "geometric", "harmonic", "min", "max", "power:2")]
    for mean in specs + [power_mean(-3.0), power_mean(0.0)]:
        for call in _mean_entry_points(mean):
            call(_A0)
    assert grid == []
    for call in _mean_entry_points(custom_mean(lambda a, b: 0.5 * (a + b))):
        call(_A0)
    assert grid == [10_000] * 3


def test_infinite_mean_is_refused_by_every_entry_point():
    # Equal infinities compare close, so an evaluator answering +inf passes
    # symmetry and homogeneity; it fails betweenness and is refused as input
    # rather than surfacing later as a non-finite answer or a failed stage.
    mean = custom_mean(lambda a, b: np.full(np.shape(a), np.inf))
    for call in _mean_entry_points(mean):
        with pytest.raises(DomainError, match=re.escape(
                "custom mean is not between-valued: (a, b, M(a, b)) = "
                "(1.0, 1.0, inf)")):
            call(_A0)


# Symmetric, homogeneous evaluators that are not between-valued: each
# breaks M(a, a) = a, which the minimizer and the realization read, or the
# positive, finite values every answer needs.
NOT_BETWEEN = {
    "a + b": lambda a, b: a + b,
    "2 sqrt(a) sqrt(b)": lambda a, b: 2.0 * np.sqrt(a) * np.sqrt(b),
    "-(a + b) / 2": lambda a, b: -(a + b) / 2.0,
    "0 a": lambda a, b: 0.0 * a,
    # Overflows at the vet's pairs (2^60 t, 2^60); it must not warn.
    "1e300 max(a, b)": lambda a, b: 1e300 * np.maximum(a, b),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NOT_BETWEEN))
def test_non_between_mean_is_refused_by_every_entry_point(name):
    # At the parent, a + b gave kyfan_minimizer a min_value twice the
    # partial sum, and 1e300 max(a, b) raised an overflow warning.
    evaluator = NOT_BETWEEN[name]
    witness = (1.0, 1.0, float(evaluator(1.0, 1.0)))
    mean = custom_mean(evaluator)
    for call in _mean_entry_points(mean):
        with pytest.raises(DomainError, match=re.escape(
                "custom mean is not between-valued: (a, b, M(a, b)) = "
                f"{witness}")):
            call(_A0)


def test_non_monotone_mean_is_admitted():
    # The contraharmonic mean (a^2 + b^2) / (a + b) is not monotone, but no
    # answer rests on monotonicity: its minimum is the partial sum, and
    # the search finds no frame below it.
    mean = custom_mean(lambda a, b: (a * a + b * b) / (a + b))
    assert not validate_mean_axioms(mean).monotonicity.passed
    A = random_pd(3, seed=0)
    for k in (1, 2, 3):
        res = kyfan_minimizer(A, k, mean)
        np.testing.assert_allclose(res.min_value, res.delta_partial_sum,
                                   rtol=1e-12)
        assert kyfan_search(A, k, mean, budget=400).violations == 0


def test_kyfan_objective_out_of_range_raises():
    # A valid frame whose b_11 = 1e320 a_11 overflows.
    X = np.zeros((4, 2))
    X[0, 0], X[2, 1] = 1e160, 1e-160
    assert is_symplectic(X).residual == 0.0
    with pytest.raises(NumericalError, match="not finite"):
        kyfan_objective(random_pd(2, seed=1), X, geometric_mean())


@pytest.mark.parametrize("big,small", [(1e160, 1e-160), (1e-170, 1e170)])
def test_kyfan_objective_range_failure_is_numerical(big, small):
    # Valid frames whose b_11 overflows to inf or underflows to 0: either
    # is a range failure, not an argument outside the mean's domain.
    X = np.zeros((4, 2))
    X[0, 0], X[2, 1] = big, small
    assert is_symplectic(X).residual == 0.0
    for mean in (geometric_mean(), parse_mean("harmonic"), parse_mean("power:2")):
        with pytest.raises(NumericalError, match="out of range"):
            kyfan_objective(random_pd(2, seed=1), X, mean)


def test_kyfan_objective_sum_past_the_double_range_raises_no_warning():
    # X = diag(a, a, 1/a, 1/a), a^2 = 1.2e308, is a frame with residual 0.
    # Both max-mean values are in range and their sum is not: at the
    # parent the sum's overflow warning came before this NumericalError.
    a = math.sqrt(1.2e308)
    X = np.diag([a, a, 1.0 / a, 1.0 / a])
    assert is_symplectic(X).residual == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="^Ky Fan objective is not finite$"):
            kyfan_objective(np.eye(4), X, max_mean())


@pytest.mark.parametrize("name", ["arithmetic", "geometric", "harmonic", "min",
                                  "max", "power:2", "custom"])
def test_kyfan_calls_score_frames_one_way(name):
    # Every call scores frames on A's unit form, which is right only for a
    # homogeneous mean; the custom evaluator is not one, so it is refused.
    A = 8.0 * random_pd(4, seed=0)
    if name == "custom":
        mean = custom_mean(lambda a, b: 0.5 * a + 0.5 * b + 1.0)
        with pytest.raises(DomainError, match="not homogeneous"):
            kyfan_search(A, 2, mean, budget=400)
        with pytest.raises(DomainError, match="not homogeneous"):
            kyfan_minimizer(A, 2, mean)
        return
    mean = parse_mean(name)
    rep = kyfan_search(A, 2, mean, budget=400)
    assert rep.best_value == kyfan_objective(A, rep.best_frame, mean)
    res = kyfan_minimizer(A, 2, mean)
    assert res.min_value == kyfan_objective(A, res.minimizer, mean)


def test_kyfan_minimizer_frame_is_the_block_formula():
    # [[W22, -W21], [-W12, W11]] with each quadrant cut to its first k columns.
    for n in (1, 2, 4):
        A = random_pd(n, seed=n + 7, spread=1.0)
        W = williamson(A).W
        W11, W12, W21, W22 = W[:n, :n], W[:n, n:], W[n:, :n], W[n:, n:]
        for k in range(1, n + 1):
            want = np.block([[W22[:, :k], -W21[:, :k]],
                             [-W12[:, :k], W11[:, :k]]])
            X = kyfan_minimizer(A, k, geometric_mean()).minimizer
            np.testing.assert_array_equal(X, want)


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
    with pytest.raises(DomainError, match="6 rows, expected 4"):
        kyfan_objective(A, np.eye(6)[:, [0, 3]], geometric_mean())


def test_frame_checks_reject_non_frames_past_norm_overflow():
    # ||X||_F^2 overflows here; X^T J X = 1e320 J is no frame at any scale.
    X = 1e160 * np.eye(4)[:, [0, 2]]
    assert not is_symplectic(X).ok
    with pytest.raises(DomainError, match="not a symplectic frame"):
        complete_to_symplectic(X)
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
    for k in (0, 3):
        with pytest.raises(DomainError, match="k must be in 1..2"):
            kyfan_search(A, k, geometric_mean())
    # Budgets below 4 leave a spread quartile empty.
    for budget in (1, 2, 3):
        assert kyfan_search(A, 1, geometric_mean(), budget=budget).n_samples == budget


@pytest.mark.parametrize("entries,batch", [(40, 4), (9, 1), (1, 1)])
def test_kyfan_search_draws_bounded_batches(monkeypatch, entries, batch):
    # n = 3: a batch holds max(1, entries // 9) frames, whatever the budget.
    drawn = []
    real = sympectra.schur_horn._euler_frames

    def spy(rng, count, n, k, spread):
        drawn.append((spread, count))
        return real(rng, count, n, k, spread)

    monkeypatch.setattr(sympectra.schur_horn, "_BATCH_ENTRIES", entries)
    monkeypatch.setattr(sympectra.schur_horn, "_euler_frames", spy)
    rep = kyfan_search(random_pd(3, seed=1), 2, geometric_mean(), budget=103)
    assert rep.n_samples == sum(count for _, count in drawn) == 103
    assert max(count for _, count in drawn) == batch
    for spread, quarter in zip(sympectra.schur_horn._SEARCH_SPREADS,
                               (26, 26, 26, 25)):
        assert sum(c for s, c in drawn if s == spread) == quarter
    assert rep.violations == 0


@pytest.mark.parametrize("n", [1, 4])
def test_kyfan_search_best_frame_owns_its_memory(n):
    # A view into the last improving batch would keep the whole batch alive.
    rep = kyfan_search(random_pd(n, seed=2), 1, geometric_mean(), budget=400)
    assert rep.best_frame.base is None
    assert rep.best_frame.shape == (2 * n, 2)


def test_kyfan_search_hands_custom_means_1d_arrays():
    # Indexing by a.size works only on 1-D input.
    def one_d_only(a, b):
        return np.sqrt(a * b)[np.arange(a.size)]

    A = random_pd(3, seed=4)
    got = kyfan_search(A, 2, custom_mean(one_d_only), budget=40, seed=1)
    want = kyfan_search(A, 2, custom_mean(lambda a, b: np.sqrt(a * b)),
                        budget=40, seed=1)
    assert (got.best_value, got.violations) == (want.best_value, want.violations)
    np.testing.assert_array_equal(got.best_frame, want.best_frame)


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


@pytest.mark.parametrize("e", [0, 900, -900])
def test_custom_mean_scores_on_the_unit_form(e):
    # M dominates the geometric mean, but a * b overflows at 2^900 A and
    # underflows at 2^-900 A.  Scored on A's own diagonal, symplectic_diag
    # read [inf, inf], schur_check raised a DomainError naming no mean at
    # 2^900 and answered a silent False at 2^-900.  Scored on the unit
    # form, every answer is exactly 2^e times the one at scale 1.
    M = custom_mean(lambda a, b: (a + math.sqrt(a * b) + b) / 3.0)
    A, c = random_pd(3, seed=0), 2.0 ** e

    def answers(B):
        res = kyfan_minimizer(B, 2, M)
        return (symplectic_diag(B, M), schur_check(B, M), res,
                kyfan_objective(B, res.minimizer, M),
                kyfan_search(B, 2, M, budget=64))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag, rep, res, obj, search = answers(c * A)
        unit = answers(A)
    assert rep.verdict and unit[1].verdict
    for got, want in ((diag, unit[0]), (rep.diag_m, unit[1].diag_m),
                      (rep.report.k_slacks, unit[1].report.k_slacks),
                      (res.min_value, unit[2].min_value), (obj, unit[3]),
                      (search.best_value, unit[4].best_value)):
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, c * want)
    assert search.violations == unit[4].violations == 0
