import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympectra import (DomainError, KyFanResult, KyFanSearchReport,
                       MajorizationReport, SchurCheckReport, SymplecticCheck,
                       SympectraError, WilliamsonFactorization,
                       horn_symplectic_realize, kyfan_minimizer,
                       kyfan_objective, kyfan_search, means, random_pd,
                       random_symplectic, schur_check, symplectic_diag)
from sympectra.means import (AxiomResult, ValidationReport, arithmetic_mean,
                             custom_mean, geometric_mean, harmonic_mean,
                             max_mean, min_mean, parse_mean, power_mean,
                             validate_mean_axioms)

BUILTIN_NAMES = ["arithmetic", "geometric", "harmonic", "min", "max"]

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def all_builtins():
    return [parse_mean(name) for name in BUILTIN_NAMES] + [power_mean(2.0)]


def test_parse_builtin_names():
    for name in BUILTIN_NAMES:
        assert parse_mean(name).name == name


def test_parse_power_grammar():
    m = parse_mean("power:2")
    assert m.name == "power:2"
    assert m.evaluator(2.0, 8.0) == pytest.approx(np.sqrt(34.0))
    assert parse_mean("power:-1.5").exponent == -1.5
    # exponent zero is the geometric mean
    m0 = parse_mean("power:0")
    assert m0.evaluator(2.0, 8.0) == pytest.approx(4.0)


@pytest.mark.parametrize("bad", ["", "quadratic", "power:", "power:abc",
                                 "Power:2", "geometric mean"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(DomainError):
        parse_mean(bad)


def test_evaluate_known_values():
    assert arithmetic_mean().evaluator(2.0, 8.0) == 5.0
    assert geometric_mean().evaluator(2.0, 8.0) == pytest.approx(4.0)
    assert harmonic_mean().evaluator(2.0, 8.0) == pytest.approx(3.2)
    assert min_mean().evaluator(2.0, 8.0) == 2.0
    assert max_mean().evaluator(2.0, 8.0) == 8.0


def test_equal_factory_calls_give_equal_specs():
    for name in BUILTIN_NAMES + ["power:2", "power:-3", "power:0", "power:inf"]:
        assert parse_mean(name) == parse_mean(name)
        assert hash(parse_mean(name)) == hash(parse_mean(name))
    assert power_mean(2) == power_mean(2.0)
    assert power_mean(2) != power_mean(3)
    assert arithmetic_mean() != power_mean(1)
    assert len({parse_mean("power:2"), power_mean(2.0)}) == 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=positive, b=positive)
def test_builtin_axioms_pointwise(a, b):
    for mean in all_builtins():
        m = mean.evaluator(a, b)
        assert m == pytest.approx(mean.evaluator(b, a))  # symmetry
        lo, hi = min(a, b), max(a, b)
        assert lo - 1e-12 * hi <= m <= hi * (1 + 1e-12)          # betweenness
        c = 3.7
        assert mean.evaluator(c * a, c * b) == pytest.approx(c * m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=positive, b=positive, shift=st.floats(min_value=0, max_value=10))
def test_builtin_monotonicity(a, b, shift):
    for mean in all_builtins():
        assert mean.evaluator(a + shift, b) >= mean.evaluator(a, b) - 1e-12


def test_equal_arguments_fixed_point():
    for mean in all_builtins():
        for a in (1e-3, 1.0, 37.5, 1e3):
            assert mean.evaluator(a, a) == pytest.approx(a, rel=1e-14)


def test_power_means_increase_with_exponent():
    rng = np.random.default_rng(0)
    ps = [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0]
    for _ in range(50):
        a, b = rng.uniform(0.01, 100.0, size=2)
        vals = [power_mean(p).evaluator(a, b) for p in ps]
        assert np.all(np.diff(vals) >= -1e-10 * max(a, b))


def test_power_mean_extreme_exponent_no_overflow():
    # Factoring out the dominant argument keeps a^p finite.
    v = power_mean(200.0).evaluator(1e3, 1e-3)
    assert np.isfinite(v) and v == pytest.approx(1e3 * 0.5 ** (1 / 200.0))
    v = power_mean(-200.0).evaluator(1e3, 1e-3)
    assert np.isfinite(v) and v == pytest.approx(1e-3 * 0.5 ** (-1 / 200.0))


@pytest.mark.parametrize("p", [1e-20, -1e-20, 1e-12, -1e-12, 1e-300, -1e-300])
def test_power_mean_tends_to_geometric_near_zero(p):
    # At the parent power:1e-20 evaluated as max, power:-1e-20 as min, and
    # power:1e-12 was off by 7.6e-5 at (1, 4).  The exact power mean at
    # (1, 4) is 2 (1 + p ln(4)^2 / 8 + O(p^2)).
    assert power_mean(p).evaluator(1.0, 4.0) == pytest.approx(
        2.0 * (1.0 + p * math.log(4.0) ** 2 / 8.0), rel=1e-15)
    A = random_pd(2, seed=0)
    np.testing.assert_allclose(symplectic_diag(A, power_mean(p)),
                               symplectic_diag(A, geometric_mean()),
                               rtol=1e-11)


@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-320, -1e-320])
def test_power_mean_subnormal_exponent_is_geometric(p):
    # At the parent power:5e-324 evaluated as max (4.0) and power:1e-320
    # gave 1.99993: p ln(4) keeps too few bits.  The exact value is 2 to
    # rounding.  The exponent, name and dominance claim are p's own.
    mean = power_mean(p)
    assert mean.evaluator(1.0, 4.0) == 2.0
    assert mean.exponent == p and mean.name == f"power:{p:g}"
    assert mean.dominates_geometric_claim is (p >= 0)


@pytest.mark.parametrize("p", [2.0, -3.0, math.inf, -math.inf])
def test_power_mean_past_the_ratio_range(p):
    # min / max = 2^-1200 underflows and max / min overflows; neither may
    # warn (the parent warned for p < 0).  The limits p = +-inf are the
    # max and min means.
    lead = 2.0 ** 600 if p > 0 else 2.0 ** -600
    got = power_mean(p).evaluator([2.0 ** -600, 3.0], [2.0 ** 600, 3.0])
    np.testing.assert_allclose(got, [lead * 0.5 ** (1.0 / p), 3.0], rtol=1e-15)


def test_evaluate_pairs_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 10.0, 40)
    b = rng.uniform(0.1, 10.0, 40)
    for mean in all_builtins():
        vec = means._evaluate(mean, a, b)
        ref = np.array([mean.evaluator(ai, bi) for ai, bi in zip(a, b)])
        np.testing.assert_allclose(vec, ref, rtol=1e-15)


def test_evaluate_pairs_scalar_fallback_for_custom():
    mean = custom_mean(lambda a, b: min(a, b))
    a = np.array([1.0, 4.0, 2.0])
    b = np.array([3.0, 1.0, 2.0])
    np.testing.assert_allclose(means._evaluate(mean, a, b), [1.0, 1.0, 2.0])


def test_evaluate_pairs_math_sqrt_mean_takes_per_element_path():
    calls = []

    def heronian(a, b):
        calls.append((a, b))
        return (a + math.sqrt(a * b) + b) / 3.0

    a = np.array([1.0, 4.0, 2.0, 9.0])
    b = np.array([4.0, 1.0, 2.0, 1.0])
    got = means._evaluate(custom_mean(heronian), a, b)
    np.testing.assert_allclose(got, (a + np.sqrt(a * b) + b) / 3.0, rtol=1e-15)
    # One rejected whole-array attempt, then one call per element.
    assert len(calls) == 1 + a.size
    assert all(isinstance(x, float) for x, _ in calls[1:])


def _scalar_heronian(a, b):
    return (a + math.sqrt(a * b) + b) / 3.0


def test_library_calls_a_scalar_only_mean_once_per_pair():
    # The diagonal pairs reach the evaluator as one whole-array attempt,
    # then one call per pair, after the spec's one-time vet.
    calls = []

    def heronian(a, b):
        calls.append((a, b))
        return _scalar_heronian(a, b)

    mean = custom_mean(heronian)
    A = random_pd(3, seed=4)
    symplectic_diag(A, mean)
    calls.clear()
    got = symplectic_diag(A, mean)
    d = np.diag(A)
    np.testing.assert_allclose(got, [_scalar_heronian(d[j], d[3 + j])
                                     for j in range(3)], rtol=1e-15)
    assert len(calls) == 1 + 3
    assert all(type(x) is float and type(y) is float for x, y in calls[1:])


def test_library_hands_the_evaluator_positive_finite_arguments(monkeypatch):
    # No argument check guards the evaluator: every caller of _diag_m has
    # shown its values positive and finite first (its docstring says how).
    # A spy on the one core holds every entry point to that, at scales
    # 2^+-900, near the definiteness floor and on far-field frames.
    seen = []
    evaluate = means._evaluate

    def spy(mean, a, b):
        seen.append(np.concatenate([np.ravel(a), np.ravel(b)]))
        return evaluate(mean, a, b)

    monkeypatch.setattr(means, "_evaluate", spy)
    Q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    near_floor = (Q * np.geomspace(1e-12, 1.0, 4)) @ Q.T
    matrices = [random_pd(2, seed=1), 0.5 * (near_floor + near_floor.T),
                np.diag([1.0, 1e-12, 1.0, 1.0])]
    # Euler-form frames: the search's far-field spread, and squeezes 2^+-500
    # and 2^+-600, whose diag(X^T U X) is in range and past it.
    frames = [random_symplectic(2, seed=s, spread=2.0)[:, [0, 2]]
              for s in range(4)]
    frames += [np.diag([2.0 ** e, 1.0, 2.0 ** -e, 1.0])[:, [0, 2]]
               for e in (500, 600)]
    answered = 0
    for mean in (geometric_mean(), custom_mean(_scalar_heronian)):
        for e in (-900, 0, 900):
            x, y = np.ldexp([2.0, 3.0], e), np.ldexp([1.0, 2.0], e)
            for A in (np.ldexp(M, e) for M in matrices):
                calls = [lambda: schur_check(A, mean),
                         lambda: symplectic_diag(A, mean),
                         lambda: kyfan_minimizer(A, 1, mean),
                         lambda: kyfan_search(A, 2, mean, budget=64, seed=e),
                         lambda: horn_symplectic_realize(x, y, mean)]
                calls += [lambda X=X: kyfan_objective(A, X, mean)
                          for X in frames]
                for call in calls:
                    try:
                        call()
                        answered += 1
                    except SympectraError:
                        pass
    assert answered >= 100 and len(seen) >= answered
    for v in seen:
        assert v.size and v.min() > 0 and v.max() < np.inf


def test_evaluate_pairs_propagates_other_evaluator_errors():
    # A bug on the array path must surface, not be retried per element.
    def broken(a, b):
        if np.ndim(a):
            raise RuntimeError("evaluator bug")
        return 0.5 * (a + b)

    with pytest.raises(RuntimeError, match="evaluator bug"):
        means._evaluate(custom_mean(broken), np.array([1.0, 2.0]),
                        np.array([3.0, 4.0]))


def test_validate_axioms_passes_builtins():
    for mean in all_builtins():
        rep = validate_mean_axioms(mean)
        assert rep.passed, (mean.name, rep)
        assert rep.samples == 10_000


def test_validate_axioms_flags_asymmetry():
    broken = custom_mean(lambda a, b: a)
    rep = validate_mean_axioms(broken)
    assert not rep.symmetry.passed
    assert rep.symmetry.witness is not None
    assert not rep.passed


def test_validate_axioms_flags_inhomogeneity():
    broken = custom_mean(lambda a, b: (a + b) / 2 + 1.0)
    rep = validate_mean_axioms(broken)
    assert not rep.homogeneity.passed


def test_validate_axioms_flags_betweenness():
    broken = custom_mean(lambda a, b: a + b)
    rep = validate_mean_axioms(broken)
    assert not rep.betweenness.passed


def test_validate_axioms_flags_nonmonotone():
    broken = custom_mean(lambda a, b: min(a, b) + abs(a - b) / (1 + a * b))
    rep = validate_mean_axioms(broken)
    assert not rep.passed
    assert not (rep.monotonicity.passed and rep.betweenness.passed
                and rep.homogeneity.passed)


def test_dominance_verdicts():
    for mean in (arithmetic_mean(), geometric_mean(), max_mean(),
                 power_mean(2.0)):
        assert validate_mean_axioms(mean).dominates_geometric.passed


def _kinked_mean():
    # max(a, b) f(min / max) with f(t) = sqrt(t) down to t = 1e-8 and 1e4 t
    # below: a mean that falls below sqrt(ab) only at ratios under 1e-8.
    def kinked(a, b):
        big, small = np.maximum(a, b), np.minimum(a, b)
        t = small / big
        return big * np.where(t >= 1e-8, np.sqrt(t), 1e4 * t)

    return custom_mean(kinked)


@pytest.mark.parametrize("factory", [harmonic_mean, min_mean, _kinked_mean])
def test_dominance_witness_for_sub_geometric(factory):
    mean = factory()
    report = validate_mean_axioms(mean)
    assert report.passed
    rep = report.dominates_geometric
    assert not rep.passed
    a, b, g, m = rep.witness
    assert g == pytest.approx(np.sqrt(a * b))
    assert m < g  # the witness really is a violation
    assert not schur_check(random_pd(2), mean).mean_dominates_geometric


@pytest.mark.parametrize("check", [validate_mean_axioms])
def test_mean_checks_are_deterministic(check):
    # One fixed grid of ratios and no seed: a repeated call reports the same.
    assert list(inspect.signature(check).parameters) == ["mean"]
    for mean in (harmonic_mean(), custom_mean(lambda a, b: a)):
        assert check(mean) == check(mean)


def test_dominance_claims_annotated():
    assert arithmetic_mean().dominates_geometric_claim is True
    assert harmonic_mean().dominates_geometric_claim is False
    assert power_mean(3.0).dominates_geometric_claim is True
    assert power_mean(-0.5).dominates_geometric_claim is False
    assert custom_mean(lambda a, b: a).dominates_geometric_claim is None


@pytest.mark.parametrize("c", [2.0 ** 1000, 2.0 ** -1000, 1e200, 1e-200])
def test_builtin_means_homogeneous_across_double_range(c):
    # No built-in evaluator forms a*b or a+b, so scaling by c never
    # overflows or underflows on the way.
    rng = np.random.default_rng(3)
    a = 10.0 ** rng.uniform(-3, 3, 200)
    b = 10.0 ** rng.uniform(-3, 3, 200)
    for mean in all_builtins() + [power_mean(0.0), power_mean(-3.0)]:
        got = mean.evaluator(c * a, c * b)
        want = c * mean.evaluator(a, b)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), mean.name


def test_power_mean_rejects_nan_exponent():
    with pytest.raises(DomainError):
        power_mean(float("nan"))
    with pytest.raises(DomainError):
        parse_mean("power:nan")


def _nan_mean():
    return custom_mean(lambda a, b: float("nan"))


def test_dominance_counts_nan_as_violation():
    rep = validate_mean_axioms(_nan_mean()).dominates_geometric
    assert not rep.passed
    a, b, g, m = rep.witness
    assert g == pytest.approx(np.sqrt(a * b)) and np.isnan(m)


def test_validate_axioms_counts_nan_as_violation():
    rep = validate_mean_axioms(_nan_mean())
    assert not rep.passed
    for axiom in (rep.symmetry, rep.homogeneity, rep.monotonicity,
                  rep.betweenness, rep.dominates_geometric):
        assert not axiom.passed and axiom.witness is not None


def test_dominance_counts_infinity_as_violation():
    # sqrt(t) <= inf holds, but an infinite M(t, 1) is no mean value.
    rep = validate_mean_axioms(custom_mean(
        lambda a, b: np.full(np.shape(a), np.inf))).dominates_geometric
    assert not rep.passed
    assert rep.witness == (1.0, 1.0, 1.0, np.inf)


@pytest.mark.parametrize("evaluator", [
    lambda a, b: np.sqrt(a * b + 0j) + 1e-3j,   # array path
    lambda a, b: complex(math.sqrt(a * b), 1e-3),  # per-element fallback
], ids=["arrays", "scalars"])
def test_complex_mean_values_are_refused(evaluator):
    # The real part is the geometric mean, so only the type is wrong: every
    # entry point refuses it with one DomainError and no ComplexWarning,
    # and so does the check, for which it is no axiom violation.
    A = random_pd(2, seed=0)
    X = kyfan_minimizer(A, 1, geometric_mean()).minimizer
    mean = custom_mean(evaluator)
    calls = [lambda: kyfan_objective(A, X, mean),
             lambda: kyfan_minimizer(A, 1, mean),
             lambda: kyfan_search(A, 1, mean, budget=8),
             lambda: schur_check(A, mean),
             lambda: symplectic_diag(A, mean),
             lambda: horn_symplectic_realize([2.0, 3.0], [1.0, 2.0], mean),
             lambda: validate_mean_axioms(mean)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError,
                               match="^mean value has complex entries$"):
                call()


def test_refused_complex_spec_is_vetted_once():
    # The vet raises on complex values, and at the parent a raising vet
    # kept nothing: every call evaluated the whole grid again.
    calls = []

    def evaluator(a, b):
        calls.append(1)
        return complex(a + b) / 2

    mean = custom_mean(evaluator)
    A = random_pd(2, seed=0)
    seen = []
    for _ in range(3):
        with pytest.raises(DomainError) as exc:
            symplectic_diag(A, mean)
        seen.append((len(calls), str(exc.value)))
    assert seen[0][1] == "mean value has complex entries"
    assert seen[1] == seen[2] == seen[0]


def test_result_types_are_named_tuples():
    # One record idiom: every result unpacks and indexes like
    # SymplecticCheck, with the attribute names of the old dataclasses.
    fields = {
        MajorizationReport: ("kind", "k_slacks", "total_gap", "verdict",
                             "threshold"),
        WilliamsonFactorization: ("W", "delta", "residual",
                                  "symplectic_residual"),
        SchurCheckReport: ("diag_m", "delta", "report",
                           "mean_dominates_geometric"),
        KyFanResult: ("k", "minimizer", "min_value", "delta_partial_sum"),
        KyFanSearchReport: ("k", "best_value", "best_frame", "violations",
                            "n_samples", "delta_partial_sum", "threshold"),
        AxiomResult: ("passed", "witness"),
        ValidationReport: ("symmetry", "homogeneity", "monotonicity",
                           "betweenness", "dominates_geometric", "samples"),
        SymplecticCheck: ("ok", "residual"),
    }
    for cls, names in fields.items():
        assert issubclass(cls, tuple) and cls._fields == names, cls
    assert AxiomResult(True).witness is None
    rep = validate_mean_axioms(geometric_mean())
    assert rep.passed and rep[-1] == rep.samples == 10_000
