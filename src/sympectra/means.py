"""Two-variable generalized means.

A mean is a positive function M on pairs of positive reals that is
symmetric, positively homogeneous, monotone (non-strictly) in each
argument, and between-valued (min(a,b) <= M(a,b) <= max(a,b), which
forces M(a,a) = a).  Built-in instances cover the arithmetic, geometric,
harmonic, min, max and power-mean families; arbitrary user evaluators are
wrapped as ``custom`` means and can be vetted by randomized sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, _check_tol

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

SAMPLE_RANGE = (1e-3, 1e3)


@dataclass(frozen=True)
class MeanSpec:
    """A two-variable mean: a named kind plus its evaluator.

    ``dominates_geometric_claim`` is an analytically asserted flag stating
    whether sqrt(a*b) <= M(a,b) holds for all positive a, b; ``None`` means
    unknown (typical for custom evaluators).  For an unknown claim,
    ``schur_check`` samples the dominance once per spec and keeps the
    verdict on it, so a spec's evaluator should not change behaviour
    after its first ``schur_check``.
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
        """The claim if given, else a 2000-pair sample (seed 0), taken once."""
        if self.dominates_geometric_claim is not None:
            return bool(self.dominates_geometric_claim)
        return dominates_geometric(self, sample_budget=2000, seed=0).holds


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


def custom_mean(evaluator: Callable[[float, float], float],
                dominates_geometric_claim: Optional[bool] = None) -> MeanSpec:
    """Wrap a user-supplied evaluator; its axioms are NOT checked here.

    The library's own calls hand the evaluator scalars or 1-D arrays, and
    fall back to one call per element as ``evaluate_pairs`` describes.

    Without a ``dominates_geometric_claim``, ``schur_check`` samples the
    dominance of the geometric mean on its first call with the returned
    spec and keeps that verdict on the spec for later calls.
    """
    return MeanSpec("custom", evaluator,
                    dominates_geometric_claim=dominates_geometric_claim)


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
    per element."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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
        out = np.asarray(mean.evaluator(a, b), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    af, bf = np.broadcast_arrays(a, b)
    return np.array([mean.evaluator(float(x), float(y))
                     for x, y in zip(af.ravel(), bf.ravel())]).reshape(af.shape)


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom sampling verdicts; witnesses hold the first counterexample."""

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
    """Did sqrt(a*b) <= M(a,b) + tol hold over all sampled pairs."""

    holds: bool
    witness: Optional[tuple] = None
    samples: int = 0


def _log_uniform(rng, size):
    lo, hi = np.log10(SAMPLE_RANGE[0]), np.log10(SAMPLE_RANGE[1])
    return 10.0 ** rng.uniform(lo, hi, size=size)


def _first_violation(mask, *columns):
    idx = int(np.argmax(mask))
    return tuple(float(c[idx]) for c in columns)


def validate_mean_axioms(mean: MeanSpec, sample_budget: int = 10_000,
                         seed: int = 0, tol: float = 1e-9) -> ValidationReport:
    """Check the four mean axioms on log-uniform random samples.

    Each sampled triple (a, b, r) in [1e-3, 1e3]^3 is used in all four
    checks: symmetry M(a,b) = M(b,a), homogeneity M(ra,rb) = r*M(a,b),
    non-strict monotonicity against a shifted copy of each argument, and
    betweenness min <= M <= max (including equal-argument pairs, which
    forces M(a,a) = a).  Violations are reported, never raised.
    ``sample_budget`` >= 1 triples are drawn from ``seed``; ``tol`` is the
    comparison slack relative to the values compared.
    """
    _check_tol(tol)
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    rng = np.random.default_rng(seed)
    a = _log_uniform(rng, sample_budget)
    b = _log_uniform(rng, sample_budget)
    r = _log_uniform(rng, sample_budget)
    # A slice of exact-tie pairs exercises the forced identity M(a,a) = a.
    n_eq = max(1, sample_budget // 16)
    b[:n_eq] = a[:n_eq]

    m_ab = evaluate_pairs(mean, a, b)
    m_ba = evaluate_pairs(mean, b, a)
    m_r = evaluate_pairs(mean, r * a, r * b)
    up = 1.0 + rng.uniform(0.1, 2.0, size=sample_budget)
    m_up_a = evaluate_pairs(mean, a * up, b)
    m_up_b = evaluate_pairs(mean, a, b * up)

    scale = np.abs(m_ab)

    # Each mask is "not ok", so a NaN value counts as a violation.
    sym_bad = ~(np.abs(m_ab - m_ba) <= tol * scale)
    hom_bad = ~(np.abs(m_r - r * m_ab) <= tol * np.abs(r * m_ab))
    mono_bad = ~((m_up_a >= m_ab - tol * scale)
                 & (m_up_b >= m_ab - tol * scale))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    btw_bad = ~((m_ab >= lo - tol * scale) & (m_ab <= hi + tol * scale))

    def result(mask, *cols):
        if not mask.any():
            return AxiomResult(True)
        return AxiomResult(False, _first_violation(mask, *cols))

    return ValidationReport(
        symmetry=result(sym_bad, a, b, m_ab, m_ba),
        homogeneity=result(hom_bad, a, b, r, m_r, r * m_ab),
        monotonicity=result(mono_bad, a, b, up, m_ab),
        betweenness=result(btw_bad, a, b, m_ab),
        samples=sample_budget,
    )


def dominates_geometric(mean: MeanSpec, sample_budget: int = 10_000,
                        seed: int = 0, tol: float = 1e-12) -> DominanceReport:
    """Sample pairs and test sqrt(a*b) <= M(a,b) + tol sqrt(a*b) on every one.

    The witness, when present, is ``(a, b, sqrt(a*b), M(a,b))`` for the
    first sampled violation.
    """
    _check_tol(tol)
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    rng = np.random.default_rng(seed)
    a = _log_uniform(rng, sample_budget)
    b = _log_uniform(rng, sample_budget)
    m = evaluate_pairs(mean, a, b)
    g = np.sqrt(a * b)
    bad = ~(g <= m + tol * g)  # NaN counts as a violation
    if not bad.any():
        return DominanceReport(True, None, sample_budget)
    return DominanceReport(False, _first_violation(bad, a, b, g, m),
                           sample_budget)
