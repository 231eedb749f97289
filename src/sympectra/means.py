"""Two-variable generalized means.

A mean is a positive function M on pairs of positive reals that is
symmetric, positively homogeneous, monotone (non-strictly) in each
argument, and between-valued (min(a,b) <= M(a,b) <= max(a,b), which
forces M(a,a) = a).  Built-in instances cover the arithmetic, geometric,
harmonic, min, max and power-mean families; arbitrary user evaluators are
wrapped as ``custom`` means.

A symmetric, homogeneous M is max(a, b) f(min / max) with f(t) = M(t, 1),
so ``validate_mean_axioms`` decides the axioms and the dominance of the
geometric mean on one fixed grid of ratios t, with no randomness.  The
library's answers rest on three of the axioms: it scores every mean on a
unit form (the rule is in ``symplectic``), which is right only for a
symmetric, homogeneous M, and the Ky Fan minimizer and the Horn
realization read M(a, a) = a, which betweenness forces (as it forces
positive, finite values).  Monotonicity is reported but not required: no
answer relies on it.  ``MeanSpec`` says which specs are vetted, and when.

This module is the one place a mean is evaluated.  Every library answer
pairs its diagonal through ``_diag_m``, whose callers have shown the
arguments positive and finite, and the vet evaluates its grid through
the same core, ``_evaluate``; neither checks its arguments again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .symplectic import _TINY, _as_real

__all__ = [
    "MeanSpec",
    "AxiomResult",
    "ValidationReport",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "min_mean",
    "max_mean",
    "power_mean",
    "custom_mean",
    "parse_mean",
    "validate_mean_axioms",
]


@dataclass(frozen=True)
class MeanSpec:
    """A two-variable mean: a named kind plus its evaluator.

    The factories (the ``*_mean`` functions but ``custom_mean``, and
    ``parse_mean``) return means by construction, each with an analytic
    ``dominates_geometric_claim``: whether sqrt(a*b) <= M(a,b) holds for
    all positive a, b.  Only they set that field: it is not a constructor
    argument, and ``dataclasses.replace`` leaves it None.  Any other spec,
    from ``custom_mean``, built directly or replaced, whatever its
    ``kind``, claims None and is vetted: on its first library call,
    ``validate_mean_axioms`` reports on it once and the report is kept on
    the spec.  If symmetry, homogeneity or betweenness fails there, every
    entry point raises DomainError ("custom mean is not ...") with the
    first failure's witness, on that call and every later one; a
    non-monotone spec is admitted.  A vet that raises DomainError, as for
    complex values, is kept as the refusal too.  ``schur_check`` reads the
    same report's ``dominates_geometric`` as ``mean_dominates_geometric``.
    So a spec's evaluator should not change behaviour after its first use.
    """

    kind: str
    evaluator: Callable[[float, float], float]
    exponent: Optional[float] = None
    dominates_geometric_claim: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        if self.kind == "power":
            return f"power:{self.exponent:g}"
        return self.kind

    @cached_property
    def _vet(self) -> ValidationReport:
        return validate_mean_axioms(self)

    @property
    def _dominates_geometric(self) -> bool:
        claim = self.dominates_geometric_claim
        return self._vet.dominates_geometric.passed if claim is None else claim

    @cached_property
    def _refusal(self) -> Optional[str]:
        """Why a vetted spec is no mean: the vet's own DomainError, or the
        first of symmetry, homogeneity and betweenness that fails in its
        report; None if all three hold, and for a factory spec, which is
        not evaluated."""
        if self.dominates_geometric_claim is not None:
            return None
        try:
            rep = self._vet
        except DomainError as exc:
            return str(exc)
        for what, res in (
                ("symmetric: (a, b, M(a, b), M(b, a))", rep.symmetry),
                ("homogeneous: (a, b, r, M(ra, rb), r M(a, b))", rep.homogeneity),
                ("between-valued: (a, b, M(a, b))", rep.betweenness)):
            if not res.passed:
                return f"custom mean is not {what} = {res.witness}"
        return None


def _builtin(kind: str, evaluator, claim: bool,
             exponent: Optional[float] = None) -> MeanSpec:
    """A factory spec: the one place a dominance claim is set."""
    spec = MeanSpec(kind, evaluator, exponent)
    object.__setattr__(spec, "dominates_geometric_claim", claim)
    return spec


# Each built-in evaluator is one module-level object, or a record that
# compares by its exponent, so equal factory calls give equal specs.
class _Power(NamedTuple):
    p: float

    # lead ((1 + ratio^p) / 2)^(1/p) with the dominant argument factored
    # out, so nothing overflows for large |p|, and ratio^p - 1 taken as
    # expm1(p ln ratio), so the value tends to the geometric mean as p -> 0
    # instead of rounding to 1 inside the power.  An underflowed ratio's
    # ln is -inf, and p ln ratio may pass the double range: both are exact
    # limits here, so their warnings are off.
    def __call__(self, a, b):
        p = self.p
        big, small = np.maximum(a, b), np.minimum(a, b)
        with np.errstate(divide="ignore", over="ignore"):
            lead, ratio = (big, small / big) if p > 0 else (small, big / small)
            return lead * np.exp(np.log1p(np.expm1(p * np.log(ratio)) / 2) / p)


# The built-in evaluators never form a*b or a+b, so they neither overflow
# nor underflow anywhere in the positive double range.
def _arithmetic(a, b):
    return 0.5 * a + 0.5 * b


def _geometric(a, b):
    return np.sqrt(a) * np.sqrt(b)


def _harmonic(a, b):
    # 2ab / (a + b) = min * (2 / (1 + min/max)), a factor in [1, 2] on min.
    big, small = np.maximum(a, b), np.minimum(a, b)
    return small * (2.0 / (1.0 + small / big))


def arithmetic_mean() -> MeanSpec:
    return _builtin("arithmetic", _arithmetic, True)


def geometric_mean() -> MeanSpec:
    return _builtin("geometric", _geometric, True)


def harmonic_mean() -> MeanSpec:
    return _builtin("harmonic", _harmonic, False)


def min_mean() -> MeanSpec:
    return _builtin("min", np.minimum, False)


def max_mean() -> MeanSpec:
    return _builtin("max", np.maximum, True)


def power_mean(p: float) -> MeanSpec:
    """The p-th power mean ((a^p + b^p)/2)^(1/p); its limits p = 0, inf and
    -inf are the geometric, max and min means.

    Power means increase with p, so the geometric mean (p = 0) is dominated
    exactly when p >= 0.  The value is accurate to a few ulps for every p.
    """
    p = float(p)
    if math.isnan(p):
        raise DomainError("power mean exponent must not be NaN")
    limits = {math.inf: np.maximum, -math.inf: np.minimum}
    # A subnormal p leaves p ln(a / b) too few bits, and there
    # |M_p / G - 1| <= |p| ln^2(a / b) / 8 < 1e-302 over the double range,
    # so the geometric mean (p = 0) is M_p to rounding.
    ev = (_geometric if abs(p) < _TINY
          else limits.get(p) or _Power(p))
    # ``p or 0.0`` reads -0.0 as 0.0.
    return _builtin("power", ev, p >= 0, p or 0.0)


def custom_mean(evaluator: Callable[[float, float], float]) -> MeanSpec:
    """Wrap a user-supplied evaluator of a symmetric, homogeneous,
    between-valued mean.

    Nothing is checked here: the spec is vetted on its first library call,
    as ``MeanSpec`` describes.  ``validate_mean_axioms`` never vets, so it
    reports on non-means too; but it, and so every entry point, refuses
    complex values with DomainError ("mean value has complex entries").

    The library hands the evaluator 1-D float arrays (the vet's second
    argument in f(t) = M(t, 1) is the 0-d array 1.0), and falls back to
    one call per element, on floats, when arrays raise TypeError or
    ValueError or give a result of another shape.
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


def _evaluate(mean: MeanSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise M(a, b) over float arrays, b broadcast to a's shape,
    which the result has.  A scalar-only evaluator (a wrong-shaped result,
    TypeError or ValueError on arrays) is called once per element.  Values
    are read as real numbers: a complex one raises DomainError ("mean value
    has complex entries") on either path, rather than losing its imaginary
    part.  The arguments are not checked: see the callers, ``_diag_m`` and
    ``validate_mean_axioms``."""
    try:
        out = mean.evaluator(a, b)
    except (TypeError, ValueError):
        pass
    else:
        out = _as_real(out, "mean value")
        if out.shape == a.shape:
            return out
    af, bf = np.broadcast_arrays(a, b)
    return _as_real([mean.evaluator(float(x), float(y))
                     for x, y in zip(af.ravel(), bf.ravel())],
                    "mean value").reshape(a.shape)


def _diag_m(d: np.ndarray, mean: MeanSpec) -> np.ndarray:
    """M(d_j, d_{m+j}), j = 1..m, over the last axis (length 2m) of d.

    Every library answer evaluates its mean here, so a spec that is not
    built in is vetted here, once per spec (see ``MeanSpec``).  The
    evaluator receives the pairs as 1-D arrays whatever the batch shape.
    d is not checked: each caller has shown it positive and finite.
    - ``schur_check``: diag(U) of a unit form that passed Cholesky, which
      refuses a pivot <= 0, so every u_jj > 0, and |u_ij| < 2.
    - The realization's 'diag' stage: diag(A), once ``_factored`` has
      succeeded on A.
    - ``symplectic_diag``: diag(U) of a unit form past the exact floor,
      so u_jj >= lambda_min > 1e-13 lambda_max >= 1e-13.
    - ``kyfan_objective``, ``kyfan_minimizer`` and ``kyfan_search``:
      diag(X^T U X) of a frame batch, through ``_objective``, which
      raises NumericalError unless it is positive and finite."""
    if mean._refusal is not None:
        raise DomainError(mean._refusal)
    m = d.shape[-1] // 2
    out = _evaluate(mean, d[..., :m].ravel(), d[..., m:].ravel())
    return out.reshape(d.shape[:-1] + (m,))


class AxiomResult(NamedTuple):
    passed: bool
    witness: Optional[tuple] = None


class ValidationReport(NamedTuple):
    """Per-axiom grid verdicts and the dominance of the geometric mean;
    witnesses hold the first counterexample.

    Witness shapes: symmetry ``(a, b, M(a, b), M(b, a))``; homogeneity
    ``(a, b, r, M(ra, rb), r M(a, b))``; monotonicity ``(a, b, up,
    M(a, b))`` with M(up a, b) < M(a, b) for that up > 1; betweenness
    ``(a, b, M(a, b))``; dominates_geometric ``(t, 1, sqrt(t), f(t))``.
    ``samples`` is the grid size.  ``passed`` covers the four axioms:
    dominance is a property of some means, not an axiom.
    """

    symmetry: AxiomResult
    homogeneity: AxiomResult
    monotonicity: AxiomResult
    betweenness: AxiomResult
    dominates_geometric: AxiomResult
    samples: int

    @property
    def passed(self) -> bool:
        return (self.symmetry.passed and self.homogeneity.passed
                and self.monotonicity.passed and self.betweenness.passed)


# The grid's size, and the comparison slacks relative to the values
# compared: of the axioms, and of sqrt(t) <= f(t).
_SAMPLES = 10_000
_AXIOM_TOL = 1e-9
_DOMINANCE_TOL = 1e-12
# Factors r for the pairs (r t, r): powers of two, the library's own
# scaling, and factors that are not; every r t on the grid stays normal.
_FACTORS = np.array([2.0 ** -60, 1.0 / 3.0, 3.0, 2.0 ** 60])


def _result(bad, witness) -> AxiomResult:
    """Passed when no entry is ``bad``, else ``witness(i)`` at the first
    bad entry i.

    Masks are phrased as "not ok", so a NaN value counts as a violation."""
    if not bad.any():
        return AxiomResult(True)
    return AxiomResult(False, tuple(map(float, witness(int(np.argmax(bad))))))


def validate_mean_axioms(mean: MeanSpec) -> ValidationReport:
    """Check the four mean axioms, and the dominance of the geometric mean,
    on 10 000 grid ratios t.

    The grid is t = 2^-s, s evenly spaced over [0, 900], t = 1 first.
    Symmetry and homogeneity are tested on the pairs (r t, r), r cycling
    over 2^-60, 1/3, 3 and 2^60.  Given those two, M(a, b) = max(a, b)
    f(min / max) with f(t) = M(t, 1) (Bullen, Handbook of Means and Their
    Inequalities, 2003, ch. II), so betweenness is t <= f(t) <= 1,
    monotonicity is f nondecreasing and f(t) / t nonincreasing along the
    grid, and sqrt(ab) <= M(a, b) is sqrt(t) <= f(t).  The axioms are
    compared with a slack of 1e-9 relative to the values compared, the
    dominance with 1e-12 sqrt(t).  Violations are reported, never raised.
    Values past the double range read as inf, with no overflow warning,
    so an evaluator such as 1e300 max(a, b) fails betweenness rather than
    raising; a NaN or infinite f(t) also fails the dominance.  A complex
    value is not a violation but a value of the wrong type: it raises
    DomainError ("mean value has complex entries"), as at every entry
    point.
    """
    t = 2.0 ** -np.linspace(0.0, 900.0, _SAMPLES)
    r = np.resize(_FACTORS, t.shape)
    n = t.size - 1
    with np.errstate(over="ignore"):
        f = _evaluate(mean, t, np.asarray(1.0))
        m_lo = _evaluate(mean, r * t, r)
        m_hi = _evaluate(mean, r, r * t)
        # |x - y| <= tol |y|, with equal infinities close and NaN never.
        sym = _result(~np.isclose(m_hi, m_lo, rtol=_AXIOM_TOL, atol=0.0),
                      lambda i: (r[i] * t[i], r[i], m_lo[i], m_hi[i]))
        hom = _result(~np.isclose(m_lo, r * f, rtol=_AXIOM_TOL, atol=0.0),
                      lambda i: (t[i], 1.0, r[i], m_lo[i], r[i] * f[i]))
        btw = _result(~((f >= t - _AXIOM_TOL * t) & (f <= 1.0 + _AXIOM_TOL)),
                      lambda i: (t[i], 1.0, f[i]))
        # M(up a, 1) >= M(a, 1) for up = t_j / t_{j+1} > 1: at a = t_{j+1}
        # this is f's step (entry j), at a = 1 / t_j the step of
        # M(1 / t, 1) = f(t) / t (entry n + j).
        q = f / t
        lo = np.concatenate([f[1:], q[:-1]])
        hi = np.concatenate([f[:-1], q[1:]])
        mono = _result(~(hi >= lo * (1.0 - _AXIOM_TOL)), lambda i: (
            t[i + 1] if i < n else 1.0 / t[i - n], 1.0,
            t[i % n] / t[i % n + 1], lo[i]))
        g = np.sqrt(t)
        dom = _result(~(np.isfinite(f) & (g <= f + _DOMINANCE_TOL * g)),
                      lambda i: (t[i], 1.0, g[i], f[i]))
    return ValidationReport(symmetry=sym, homogeneity=hom, monotonicity=mono,
                            betweenness=btw, dominates_geometric=dom,
                            samples=t.size)
