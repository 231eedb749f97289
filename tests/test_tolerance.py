"""One tolerance rule: every verdict is relative to the size it checks,
so answers are homogeneous across the double range, and every public
``tol`` is checked by the library itself."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import sympectra
from sympectra import (DomainError, NumericalError, majorization, means,
                       schur_horn, spectral, symplectic)
from sympectra.majorization import (intermediate_vector, majorize,
                                    weak_supermajorize)
from sympectra.means import (arithmetic_mean, custom_mean, geometric_mean,
                             harmonic_mean, min_mean, parse_mean)
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_search, schur_check)
from sympectra.spectral import (symplectic_diag, symplectic_eigenvalues,
                                williamson)
from sympectra.symplectic import (complete_to_symplectic, is_symplectic,
                                  random_pd)

SCALES = [2.0 ** 1000, 2.0 ** -1000, 1e200, 1e-200]
# Exponents e of the exact cases c = 2^e.
EXPONENTS = [-1001, -301, -3, 1, 7, 299, 1001]
MEANS = ["geometric", "arithmetic", "harmonic", "min", "max", "power:2"]


def admissible_pair(rng, n):
    """Positive (x, y) with x weakly supermajorized by y."""
    y = rng.uniform(0.5, 4.0, size=n)
    x = y[rng.permutation(n)] + rng.uniform(0.0, 1.0, size=n)
    return x, y


@pytest.mark.parametrize("c", SCALES + [2.0 ** e for e in EXPONENTS])
def test_spectrum_and_williamson_are_homogeneous(c):
    # A power of two c leaves A's unit form as it is, so every answer
    # scales by exactly c and every frame is the same bit for bit.
    exact = math.frexp(c)[0] == 0.5
    mean = geometric_mean()
    for n in (1, 2, 3, 4, 8, 16):
        A = random_pd(n, seed=n)
        d = symplectic_eigenvalues(A)
        np.testing.assert_allclose(symplectic_eigenvalues(c * A) / c, d,
                                   rtol=1e-13)
        f = williamson(c * A)
        np.testing.assert_allclose(f.delta / c, d, rtol=1e-13)
        assert f.residual <= 1e-12 and is_symplectic(f.W).ok
        if not exact:
            continue
        np.testing.assert_array_equal(symplectic_eigenvalues(c * A), c * d)
        np.testing.assert_array_equal(schur_check(c * A, mean).delta, c * d)
        np.testing.assert_array_equal(f.W, williamson(A).W)
        k = (n + 1) // 2
        unit = kyfan_minimizer(A, k, mean)
        got = kyfan_minimizer(c * A, k, mean)
        assert got.min_value == c * unit.min_value
        assert got.delta_partial_sum == c * unit.delta_partial_sum
        np.testing.assert_array_equal(got.minimizer, unit.minimizer)
        unit = kyfan_search(A, k, mean, budget=64, seed=n)
        got = kyfan_search(c * A, k, mean, budget=64, seed=n)
        assert got.best_value == c * unit.best_value
        assert got.delta_partial_sum == c * unit.delta_partial_sum
        np.testing.assert_array_equal(got.best_frame, unit.best_frame)


@pytest.mark.parametrize("c", SCALES)
def test_schur_verdicts_are_scale_free(c):
    # harmonic at n = 2, seed 1 is False at unit scale; an absolute floor
    # turned it True at 2^-40.
    seen = set()
    for n in (1, 2, 3):
        for seed in range(4):
            A = random_pd(n, seed=seed)
            for name in MEANS:
                mean = parse_mean(name)
                unit = schur_check(A, mean)
                got = schur_check(c * A, mean)
                assert got.verdict == unit.verdict, (n, seed, name)
                np.testing.assert_allclose(got.report.threshold / c,
                                           unit.report.threshold, rtol=1e-12)
                seen.add(unit.verdict)
    assert seen == {True, False}
    A = random_pd(2, seed=1)
    for e in (-40, -200):
        assert not schur_check(2.0 ** e * A, harmonic_mean()).verdict


@pytest.mark.parametrize("c", SCALES)
def test_kyfan_minimum_is_homogeneous(c):
    for n in (1, 2, 4):
        A = random_pd(n, seed=10 + n)
        for k in range(1, n + 1):
            for mean in (geometric_mean(), arithmetic_mean(), min_mean()):
                unit = kyfan_minimizer(A, k, mean)
                got = kyfan_minimizer(c * A, k, mean)
                np.testing.assert_allclose(got.min_value / c, unit.min_value,
                                           rtol=1e-13)
                np.testing.assert_allclose(got.delta_partial_sum / c,
                                           unit.delta_partial_sum, rtol=1e-13)


@pytest.mark.parametrize("e", [-1000, 996, 1016])
def test_kyfan_search_is_exactly_homogeneous(e):
    # The search runs on A / c for a power of two c, so scaling A by 2^e
    # scales its values exactly and leaves the frames bit for bit; at
    # 2^996 the far-field objectives of A itself overflow.
    A = random_pd(4, seed=0)
    unit = kyfan_search(A, 2, geometric_mean(), budget=2000)
    got = kyfan_search(2.0 ** e * A, 2, geometric_mean(), budget=2000)
    assert unit.violations == got.violations == 0
    assert got.best_value == 2.0 ** e * unit.best_value
    assert got.delta_partial_sum == 2.0 ** e * unit.delta_partial_sum
    np.testing.assert_array_equal(got.best_frame, unit.best_frame)


def test_out_of_range_answers_raise():
    # The unit-scale answers are finite; in A's units they overflow.
    A = 2.0 ** 1023 * random_pd(2, seed=0)
    with pytest.raises(NumericalError, match="Ky Fan value is out of range"):
        kyfan_search(A, 2, arithmetic_mean(), budget=400)
    with pytest.raises(NumericalError, match="Ky Fan value is out of range"):
        kyfan_minimizer(A, 2, arithmetic_mean())
    A0 = random_pd(4, seed=0, spread=1.5)
    A = 1.99 * 2.0 ** 1023 * (A0 / np.abs(A0).max())
    for call in (symplectic_eigenvalues, williamson,
                 lambda A: schur_check(A, arithmetic_mean())):
        with pytest.raises(NumericalError,
                           match="symplectic spectrum is out of range"):
            call(A)
    # Subnormal answers have lost bits: at 2^-1074 the true delta are
    # [4.9e-324, 8.6e-324], at 2^-1060 they keep about 14 bits.
    for A in (2.0 ** -1074 * np.diag([3.0, 1.0, 1.0, 1.0]),
              2.0 ** -1060 * random_pd(2, seed=0)):
        for call in (symplectic_eigenvalues, williamson,
                     lambda A: symplectic_diag(A, arithmetic_mean()),
                     lambda A: schur_check(A, arithmetic_mean()),
                     lambda A: kyfan_minimizer(A, 2, arithmetic_mean())):
            with pytest.raises(NumericalError,
                               match="is out of range: it underflows"):
                call(A)
    # The diagonal is scored on the unit form and range-checked like
    # delta: a subnormal diag_M raises rather than returning short of bits.
    A = 2.0 ** -1060 * np.diag([1.0, 3.0])
    with pytest.raises(NumericalError, match="symplectic diagonal is out of "
                       "range: it underflows"):
        symplectic_diag(A, geometric_mean())
    with pytest.raises(NumericalError, match="symplectic spectrum is out of "
                       "range: it underflows"):
        schur_check(A, geometric_mean())
    # delta = 2^-1015 is normal, but the min mean's diagonal is not.
    A = 2.0 ** -1015 * np.diag([1e-6, 1e6])
    with pytest.raises(NumericalError, match="symplectic diagonal is out of "
                       "range: it underflows"):
        schur_check(A, min_mean())
    # A zero-valued evaluator is no mean, so no zero answer reaches the
    # range check: the vet refuses it as input.
    zero = custom_mean(lambda a, b: 0.0 * a)
    with pytest.raises(DomainError, match="custom mean is not between-valued"):
        kyfan_minimizer(random_pd(2, seed=0), 1, zero)


@pytest.mark.parametrize("c", SCALES)
def test_realization_round_trips_at_every_scale(c):
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        x, y = admissible_pair(rng, n)
        for name in MEANS:
            mean = parse_mean(name)
            A = horn_symplectic_realize(c * x, c * y, mean)
            np.testing.assert_allclose(symplectic_diag(A, mean) / c, x,
                                       rtol=1e-9)
            np.testing.assert_allclose(symplectic_eigenvalues(A) / c,
                                       np.sort(y), rtol=1e-9)


def test_realization_at_tiny_scale_returns_the_matrix():
    # Its 'spectrum' stage used to fail on the absolute pairing floor.
    x, y = [2e-200, 3e-200], [1e-200, 2e-200]
    A = horn_symplectic_realize(x, y, arithmetic_mean())
    np.testing.assert_allclose(symplectic_diag(A, arithmetic_mean()), x,
                               rtol=1e-12)
    np.testing.assert_allclose(symplectic_eigenvalues(A), y, rtol=1e-12)


def _unit_pairs():
    """(x, y) pairs whose largest entry is in [1, 2), so that 2^e x is exact
    for every e from -1000 to 1023."""
    big = 1.5e308 * 2.0 ** -1023
    pairs = [([1.0, 1.0], [1.9, 1.9]),               # not weakly supermajorized
             ([0.75, 1.0, 1.25], [0.5, 1.25, 1.25]),  # admissible
             ([big, 1.0], [1.0, big]),                # equal, unsorted
             ([1.5, 1.5], [0.5, 0.5])]                # slacks overflow at 2^1023
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        x, y = admissible_pair(rng, n)
        # 2^(1 - e) for max = f 2^e, f in [0.5, 1), puts the max in [1, 2).
        s = 2.0 ** (1 - math.frexp(max(x.max(), y.max()))[1])
        pairs += [(s * x, s * y), (s * y, s * x)]
    return [(np.asarray(x), np.asarray(y)) for x, y in pairs]


UNIT_PAIRS = _unit_pairs()


@pytest.mark.parametrize("e", [-1000, -500, -40, 40, 500, 1000,
                               1019, 1020, 1021, 1022, 1023])
def test_vector_layer_is_exactly_homogeneous(e):
    # Every vector call runs on the exact unit pair x / c, y / c, so verdicts,
    # slacks, z and the realized A at 2^e are 2^e times the answers at unit
    # scale, or the call raises the typed out-of-range error.  Before, the
    # partial sums overflowed from 2^1021 on: NaN slacks, infinite
    # thresholds and the verdicts they decided.
    c = 2.0 ** e
    mean = geometric_mean()
    for x, y in UNIT_PAIRS:
        for check in (weak_supermajorize, majorize):
            unit = check(x, y)
            with np.errstate(over="ignore"):
                slacks = c * unit.k_slacks
            if not np.isfinite(slacks).all():
                with pytest.raises(NumericalError,
                                   match="^partial-sum slack is out of range"):
                    check(c * x, c * y)
                continue
            got = check(c * x, c * y)
            assert got.verdict == unit.verdict, (x, y, check)
            np.testing.assert_array_equal(got.k_slacks, slacks)
            assert got.total_gap == c * unit.total_gap
            assert got.threshold == c * unit.threshold
        try:
            z = intermediate_vector(x, y)
        except DomainError:
            for call in (intermediate_vector,
                         lambda x, y: horn_symplectic_realize(x, y, mean)):
                with pytest.raises(DomainError,
                                   match="not weakly supermajorized"):
                    call(c * x, c * y)
            continue
        np.testing.assert_array_equal(intermediate_vector(c * x, c * y), c * z)
        A = horn_symplectic_realize(x, y, mean)
        np.testing.assert_array_equal(
            horn_symplectic_realize(c * x, c * y, mean), c * A)


@pytest.mark.parametrize("e", [-1000, -40, 40, 1000, 1021, 1022, 1023])
def test_schur_check_is_exactly_homogeneous(e):
    # delta(A) is in range at 2^1023 (max 7.7e307) and the theorem says
    # True; the overflowing partial sums read False with a NaN total gap,
    # and True at 2^1022 only through an infinite threshold.
    A = random_pd(4, seed=3)
    A = A / np.abs(A).max()
    c = 2.0 ** e
    unit = schur_check(A, arithmetic_mean())
    got = schur_check(c * A, arithmetic_mean())
    assert got.verdict and unit.verdict
    np.testing.assert_array_equal(got.delta, c * unit.delta)
    np.testing.assert_array_equal(got.diag_m, c * unit.diag_m)
    np.testing.assert_array_equal(got.report.k_slacks, c * unit.report.k_slacks)
    assert got.report.total_gap == c * unit.report.total_gap
    assert got.report.threshold == c * unit.report.threshold


# Every public function that takes ``tol``, with arguments valid otherwise.
_A = random_pd(2, seed=0)
_X = np.eye(4)[:, [0, 2]]
TOL_CALLS = {
    "symplectic_eigenvalues": lambda tol: symplectic_eigenvalues(_A, tol),
    "williamson": lambda tol: williamson(_A, tol),
    "schur_check": lambda tol: schur_check(_A, geometric_mean(), tol),
    "horn_symplectic_realize": lambda tol: horn_symplectic_realize(
        [2.0, 2.0], [1.0, 2.0], geometric_mean(), tol),
    "kyfan_minimizer": lambda tol: kyfan_minimizer(_A, 1, geometric_mean(), tol),
    "kyfan_search": lambda tol: kyfan_search(_A, 1, geometric_mean(), budget=8,
                                             tol=tol),
    "weak_supermajorize": lambda tol: weak_supermajorize([2.0, 2.0], [1.0, 2.0], tol),
    "majorize": lambda tol: majorize([1.5, 1.5], [1.0, 2.0], tol),
    "intermediate_vector": lambda tol: intermediate_vector([2.0, 2.0], [1.0, 2.0], tol),
    "is_symplectic": lambda tol: is_symplectic(np.eye(4), tol),
    "complete_to_symplectic": lambda tol: complete_to_symplectic(_X, tol),
}


def test_tol_calls_cover_every_public_tol():
    takes_tol = set()
    for module in (majorization, means, schur_horn, spectral, symplectic):
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isfunction(obj)
                    and "tol" in inspect.signature(obj).parameters):
                takes_tol.add(name)
    assert takes_tol == set(TOL_CALLS)


def test_root_exports_every_module_all():
    # Each public name is declared once, in its module's __all__; the
    # package root adds only the version and the error types.
    names = sympectra.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(sympectra, name)
    modules = (majorization, means, schur_horn, spectral, symplectic)
    assert set(names) == {"__version__", "SympectraError", "DomainError",
                          "NumericalError"}.union(*(m.__all__ for m in modules))


@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_every_public_tol_is_checked(name):
    # Any real scalar is a tol; an array, even of one element, or a string
    # is refused before it reaches a verdict or a message.
    for good in (1e-8, 1, np.float32(1e-6), np.float64(1e-8)):
        TOL_CALLS[name](good)
    for bad in (0.0, -1.0, math.nan, math.inf, np.array([1e-300]), "1e-8",
                np.array([1e-8, 1e-8])):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            TOL_CALLS[name](bad)


def test_a_fraction_tol_is_read_as_its_double():
    # At the parent the check admitted the Fraction, and every message that
    # prints tol then raised TypeError ("unsupported format string passed
    # to Fraction.__format__").
    A = random_pd(4, seed=9)
    for call in (symplectic_eigenvalues, williamson):
        with pytest.raises(NumericalError, match=r"exceeding 1\.0e-300$"):
            call(A, tol=Fraction(1, 10 ** 300))
