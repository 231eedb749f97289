"""Two-variable generalized means.

A mean is a positive function M on pairs of positive reals that is
symmetric, positively homogeneous, monotone (non-strictly) in each
argument, and between-valued (min(a,b) <= M(a,b) <= max(a,b), which
forces M(a,a) = a).  Built-in instances cover the arithmetic, geometric,
harmonic, min, max and power-mean families; arbitrary user evaluators are
wrapped as ``custom`` means.

A symmetric, homogeneous M is max(a, b) f(min / max) with f(t) = M(t, 1),
so the axiom and dominance checks read M on one fixed grid of ratios t,
with no randomness.  The library's answers rest on three of the axioms:
it scores every mean on a unit form (the rule is in ``symplectic``),
which is right only for a symmetric, homogeneous M, and the Ky Fan
minimizer and the Horn realization read M(a, a) = a, which betweenness
forces (as it forces positive, finite values).  So it vets a custom mean
once, on its first use, with ``validate_mean_axioms`` and refuses one
that fails any of those three.  Monotonicity is reported but not
required: no answer relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, _check_tol
from .symplectic import _as_real, _count

__all__ = [
    "MeanSpec",
    "AxiomResult",
    "ValidationReport",
    "DominanceReport",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "min_mean",
    "max_mean",
    "power_mean",
    "custom_mean",
    "parse_mean",
    "evaluate_pairs",
    "validate_mean_axioms",
    "dominates_geometric",
]


@dataclass(frozen=True)
class MeanSpec:
    """A two-variable mean: a named kind plus its evaluator.

    ``dominates_geometric_claim`` is the analytic verdict on whether
    sqrt(a*b) <= M(a,b) holds for all positive a, b; every built-in mean
    carries one, and a custom mean has ``None``.  For ``None``,
    ``schur_check`` tests the dominance on a 2000-point grid once per spec
    and keeps the verdict on it.  A custom spec is likewise vetted for
    symmetry, homogeneity and betweenness once, on its first library
    call, and the verdict is kept; so a spec's evaluator should not
    change behaviour after its first use.
    """

    kind: str
    evaluator: Callable[[float, float], float]
    exponent: Optional[float] = None
    dominates_geometric_claim: Optional[bool] = None

    @property
    def name(self) -> str:
        if self.kind == "power":
            return f"power:{self.exponent:g}"
        return self.kind

    @cached_property
    def _dominates_geometric(self) -> bool:
        """The claim if given, else a 2000-point grid check, taken once."""
        if self.dominates_geometric_claim is not None:
            return bool(self.dominates_geometric_claim)
        return dominates_geometric(self, sample_budget=2000).holds

    @cached_property
    def _refusal(self) -> Optional[str]:
        """Why a custom evaluator is no mean: the first of symmetry,
        homogeneity and betweenness that fails in one 2000-point
        ``validate_mean_axioms`` report, taken once; None if all three
        hold.  Built-in means hold them analytically and are not
        evaluated."""
        if self.kind != "custom":
            return None
        rep = validate_mean_axioms(self, 2000)
        for what, res in (
                ("symmetric: (a, b, M(a, b), M(b, a))", rep.symmetry),
                ("homogeneous: (a, b, r, M(ra, rb), r M(a, b))", rep.homogeneity),
                ("between-valued: (a, b, M(a, b))", rep.betweenness)):
            if not res.passed:
                return f"custom mean is not {what} = {res.witness}"
        return None


def _power_eval(p: float):
    # Factor out the dominant argument so a**p never overflows for large |p|.
    def ev(a, b):
        big, small = np.maximum(a, b), np.minimum(a, b)
        lead, ratio = (big, small / big) if p > 0 else (small, big / small)
        return lead * ((1.0 + ratio**p) / 2.0) ** (1.0 / p)

    return ev


# The built-in evaluators never form a*b or a+b, so they neither overflow
# nor underflow anywhere in the positive double range.
def _geometric(a, b):
    return np.sqrt(a) * np.sqrt(b)


def _harmonic(a, b):
    # 2ab / (a + b) = min * (2 / (1 + min/max)), a factor in [1, 2] on min.
    big, small = np.maximum(a, b), np.minimum(a, b)
    return small * (2.0 / (1.0 + small / big))


def arithmetic_mean() -> MeanSpec:
    return MeanSpec("arithmetic", lambda a, b: 0.5 * a + 0.5 * b,
                    dominates_geometric_claim=True)


def geometric_mean() -> MeanSpec:
    return MeanSpec("geometric", _geometric, dominates_geometric_claim=True)


def harmonic_mean() -> MeanSpec:
    return MeanSpec("harmonic", _harmonic, dominates_geometric_claim=False)


def min_mean() -> MeanSpec:
    return MeanSpec("min", np.minimum, dominates_geometric_claim=False)


def max_mean() -> MeanSpec:
    return MeanSpec("max", np.maximum, dominates_geometric_claim=True)


def power_mean(p: float) -> MeanSpec:
    """The p-th power mean ((a^p + b^p)/2)^(1/p); p = 0 is the geometric mean.

    Power means increase with p, so the geometric mean (p = 0) is dominated
    exactly when p >= 0.
    """
    p = float(p)
    if math.isnan(p):
        raise DomainError("power mean exponent must not be NaN")
    if p == 0.0:
        return MeanSpec("power", _geometric, exponent=0.0,
                        dominates_geometric_claim=True)
    return MeanSpec("power", _power_eval(p), exponent=p,
                    dominates_geometric_claim=p >= 0)


def custom_mean(evaluator: Callable[[float, float], float]) -> MeanSpec:
    """Wrap a user-supplied evaluator of a symmetric, homogeneous,
    between-valued mean.

    Nothing is checked here.  On the spec's first use by ``schur_check``,
    ``symplectic_diag``, ``horn_symplectic_realize`` or a Ky Fan call,
    ``validate_mean_axioms`` tests it once on a 2000-point grid and the
    verdict is kept on the spec; an evaluator that fails symmetry,
    homogeneity or betweenness raises DomainError with the witness there
    and on every later use.  A non-monotone one is admitted.
    ``evaluate_pairs``, ``validate_mean_axioms`` and
    ``dominates_geometric`` never vet, so they report on non-means too;
    but all of them, and so every entry point, refuse complex values with
    DomainError ("mean value has complex entries").

    The library's own calls hand the evaluator scalars or 1-D arrays, and
    fall back to one call per element as ``evaluate_pairs`` describes.

    ``schur_check`` tests the dominance of the geometric mean on its
    first call with the returned spec and keeps that verdict on the spec
    for later calls.
    """
    return MeanSpec("custom", evaluator)


_BUILTINS = {
    "arithmetic": arithmetic_mean,
    "geometric": geometric_mean,
    "harmonic": harmonic_mean,
    "min": min_mean,
    "max": max_mean,
}


def parse_mean(spec: str) -> MeanSpec:
    """Parse a mean-selection string.

    Grammar: ``"arithmetic" | "geometric" | "harmonic" | "min" | "max" |
    "power:<float>"``.

    Raises
    ------
    DomainError
        If the string matches none of the alternatives.
    """
    spec = spec.strip()
    if spec in _BUILTINS:
        return _BUILTINS[spec]()
    if spec.startswith("power:"):
        try:
            return power_mean(float(spec[len("power:"):]))
        except ValueError as exc:
            raise DomainError(f"bad power mean exponent in {spec!r}") from exc
    raise DomainError(
        f"unknown mean {spec!r}; expected arithmetic|geometric|harmonic|min|max|power:<float>")


def evaluate_pairs(mean: MeanSpec, a, b) -> np.ndarray:
    """Elementwise M(a, b) over broadcast arrays; scalar-only evaluators (a
    wrong-shaped result, TypeError or ValueError on arrays) are called once
    per element.  Values are read as real numbers: a complex one raises
    DomainError ("mean value has complex entries") on either path, rather
    than losing its imaginary part."""
    a, b = _as_real(a, "mean argument"), _as_real(b, "mean argument")
    shape = a.shape
    if b.shape != shape:
        try:
            shape = np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DomainError(f"mean arguments of shapes {a.shape} and "
                              f"{b.shape} do not broadcast") from None
    # Phrased as "not all positive" so that NaN is rejected too.
    if not ((a > 0).all() and (b > 0).all()):
        raise DomainError("mean arguments must be strictly positive")
    try:
        out = mean.evaluator(a, b)
    except (TypeError, ValueError):
        pass
    else:
        out = _as_real(out, "mean value")
        if out.shape == shape:
            return out
    af, bf = np.broadcast_arrays(a, b)
    return _as_real([mean.evaluator(float(x), float(y))
                     for x, y in zip(af.ravel(), bf.ravel())],
                    "mean value").reshape(af.shape)


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom grid verdicts; witnesses hold the first counterexample.

    Witness shapes: symmetry ``(a, b, M(a, b), M(b, a))``; homogeneity
    ``(a, b, r, M(ra, rb), r M(a, b))``; monotonicity ``(a, b, up,
    M(a, b))`` with M(up a, b) < M(a, b) for that up > 1; betweenness
    ``(a, b, M(a, b))``.  ``samples`` is the grid size.
    """

    symmetry: AxiomResult
    homogeneity: AxiomResult
    monotonicity: AxiomResult
    betweenness: AxiomResult
    samples: int = 0

    @property
    def passed(self) -> bool:
        return (self.symmetry.passed and self.homogeneity.passed
                and self.monotonicity.passed and self.betweenness.passed)


@dataclass(frozen=True)
class DominanceReport:
    """Did sqrt(t) <= M(t, 1) + tol sqrt(t) hold at every grid ratio t."""

    holds: bool
    witness: Optional[tuple] = None
    samples: int = 0


# Factors r for the pairs (r t, r): powers of two, the library's own
# scaling, and factors that are not; every r t on the grid stays normal.
_FACTORS = np.array([2.0 ** -60, 1.0 / 3.0, 3.0, 2.0 ** 60])


def _ratios(sample_budget: int) -> np.ndarray:
    """The grid t = 2^-s, s evenly spaced over [0, 900], t = 1 first."""
    return 2.0 ** -np.linspace(0.0, 900.0,
                               _count(sample_budget, "sample_budget"))


def _result(bad, *columns) -> AxiomResult:
    """Passed when no entry is ``bad``, else the columns at the first one.

    Masks are phrased as "not ok", so a NaN value counts as a violation."""
    if not bad.any():
        return AxiomResult(True)
    i = int(np.argmax(bad))
    return AxiomResult(False, tuple(float(c[i]) for c in columns))


def validate_mean_axioms(mean: MeanSpec, sample_budget: int = 10_000,
                         tol: float = 1e-9) -> ValidationReport:
    """Check the four mean axioms on ``sample_budget`` >= 1 grid ratios t.

    The grid is t = 2^-s, s evenly spaced over [0, 900], t = 1 first.
    Symmetry and homogeneity are tested on the pairs (r t, r), r cycling
    over 2^-60, 1/3, 3 and 2^60.  Given those two, M(a, b) = max(a, b)
    f(min / max) with f(t) = M(t, 1) (Bullen, Handbook of Means and Their
    Inequalities, 2003, ch. II), so betweenness is t <= f(t) <= 1 and
    monotonicity is f nondecreasing and f(t) / t nonincreasing along the
    grid.  Violations are reported, never raised; ``tol`` is the
    comparison slack relative to the values compared.  Values past the
    double range read as inf, with no overflow warning, so an evaluator
    such as 1e300 max(a, b) fails betweenness rather than raising.  A
    complex value is not a violation but a value of the wrong type: it
    raises DomainError ("mean value has complex entries"), as in
    ``evaluate_pairs``.
    """
    _check_tol(tol)
    t = _ratios(sample_budget)
    r = np.resize(_FACTORS, t.shape)
    with np.errstate(over="ignore"):
        f = evaluate_pairs(mean, t, 1.0)
        m_lo = evaluate_pairs(mean, r * t, r)
        m_hi = evaluate_pairs(mean, r, r * t)
        # |x - y| <= tol |y|, with equal infinities close and NaN never.
        sym = _result(~np.isclose(m_hi, m_lo, rtol=tol, atol=0.0),
                      r * t, r, m_lo, m_hi)
        hom = _result(~np.isclose(m_lo, r * f, rtol=tol, atol=0.0),
                      t, np.ones_like(t), r, m_lo, r * f)
        btw = _result(~((f >= t - tol * t) & (f <= 1.0 + tol)),
                      t, np.ones_like(t), f)
        # M(up a, 1) >= M(a, 1) for up = t_i / t_{i+1} > 1: at a = t_{i+1}
        # this is f's step, at a = 1 / t_i the step of M(1 / t, 1) = f(t) / t.
        q = f / t
        a = np.concatenate([t[1:], 1.0 / t[:-1]])
        lo = np.concatenate([f[1:], q[:-1]])
        hi = np.concatenate([f[:-1], q[1:]])
        mono = _result(~(hi >= lo * (1.0 - tol)), a, np.ones_like(a),
                       np.tile(t[:-1] / t[1:], 2), lo)
    return ValidationReport(symmetry=sym, homogeneity=hom, monotonicity=mono,
                            betweenness=btw, samples=t.size)


def dominates_geometric(mean: MeanSpec, sample_budget: int = 10_000,
                        tol: float = 1e-12) -> DominanceReport:
    """Test sqrt(t) <= f(t) + tol sqrt(t) for f(t) = M(t, 1) on the grid
    of ``validate_mean_axioms``.

    For a symmetric, homogeneous M this is sqrt(ab) <= M(a, b) at every
    pair whose ratio min / max lies on the grid.  A non-finite f(t) is a
    violation.  The witness, when present, is ``(t, 1, sqrt(t), f(t))``
    for the first violation.  A complex f(t) raises DomainError ("mean
    value has complex entries"), as in ``evaluate_pairs``: it is a value
    of the wrong type, not a violation.
    """
    _check_tol(tol)
    t = _ratios(sample_budget)
    f = evaluate_pairs(mean, t, 1.0)
    g = np.sqrt(t)
    res = _result(~(np.isfinite(f) & (g <= f + tol * g)), t, np.ones_like(t),
                  g, f)
    return DominanceReport(res.passed, res.witness, t.size)
