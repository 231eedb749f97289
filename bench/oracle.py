"""Truth checks for the benchmark, written with numpy alone.

Every check compares an answer against a truth the benchmark built itself
(the prescribed symplectic spectrum of a generated matrix, the prescribed
targets of a realization) or recomputes the promised quantity with its own
routines (Cholesky plus a Hermitian eigensolver for delta, its own mean
formulas for diag_M).  Nothing here calls the library, so a change to the
library cannot change what counts as correct.

A check returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import json

import numpy as np

# The library's stated DEFAULT_TOL when the benchmark was written.  Fixed here
# so that a change to the library's default cannot loosen the gate.
TOL = 1e-8


def symplectic_factor(rng, n: int) -> np.ndarray:
    """Seeded symplectic S: shears, an orthogonal-symplectic factor, a squeeze.

    Each factor is symplectic by construction, so S (D + D) S^T has
    symplectic spectrum D exactly, whatever S is.
    """
    I = np.eye(n)
    Z = np.zeros((n, n))

    def sym(scale):
        P = rng.normal(scale=scale / np.sqrt(n), size=(n, n))
        return 0.5 * (P + P.T)

    upper = np.block([[I, sym(0.5)], [Z, I]])
    lower = np.block([[I, Z], [sym(0.5), I]])
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    unitary = np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])
    r = np.exp(rng.uniform(-0.5, 0.5, size=n))
    return (upper @ unitary @ lower) * np.concatenate([r, 1.0 / r])


def pd_with_spectrum(rng, n: int, lo: float, hi: float, c: float = 1.0):
    """(A, S, D): A = c S (D + D) S^T with D log-uniform in [lo, hi], ascending.

    S is a Williamson factor of A / c, so delta(A) = c D is known exactly.
    """
    D = np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)))
    S = symplectic_factor(rng, n)
    A = (S * np.concatenate([D, D])) @ S.T
    return c * (0.5 * (A + A.T)), S, c * D


def supermajorized_targets(rng, n: int, lo: float, hi: float, c: float = 1.0):
    """(x, y) with x weakly supermajorized by y, both positive.

    z = t y + (1 - t) P y for a random permutation P is majorized by y, and
    raising each entry of z by 5-50% keeps every ascending prefix sum at or
    above y's.
    """
    y = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    t = rng.uniform()
    z = t * y + (1.0 - t) * y[rng.permutation(n)]
    x = z * rng.uniform(1.05, 1.5, size=n)
    return c * x, c * y


def mean_pairs(mean: str, a, b) -> np.ndarray:
    """The oracle's own evaluation of the benchmark's means."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if mean == "geometric":
        return np.sqrt(a) * np.sqrt(b)
    if mean == "arithmetic":
        return 0.5 * (a + b)
    if mean == "harmonic":
        return 2.0 / (1.0 / a + 1.0 / b)
    if mean == "power:2":
        big = np.maximum(a, b)
        return big * np.sqrt(0.5 * (1.0 + (np.minimum(a, b) / big) ** 2))
    if mean == "heronian":
        return (a + np.sqrt(a) * np.sqrt(b) + b) / 3.0
    if mean == "max":
        return np.maximum(a, b)
    raise ValueError(f"unknown mean {mean!r}")


DOMINATES_GEOMETRIC = {"geometric": True, "arithmetic": True, "harmonic": False,
                       "power:2": True, "heronian": True, "max": True}


def standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_spectrum(A: np.ndarray) -> np.ndarray:
    """Ascending delta(A) via A = L L^T and the Hermitian matrix i L^T J L.

    A is first divided by a power of two near its norm, which is exact, so
    the routine works the same at every scale.  Raises LinAlgError when A is
    not positive definite.
    """
    A = np.asarray(A, dtype=float)
    scale = 2.0 ** np.round(np.log2(np.max(np.abs(A))))
    L = np.linalg.cholesky(A / scale)
    n = A.shape[0] // 2
    K = L.T @ standard_J(n) @ L
    w = np.linalg.eigvalsh(1j * (K - K.T) / 2)
    return np.sort(w[n:]) * scale


def rel_err(got, truth) -> float:
    """Normwise relative error max|got - truth| / max|truth|; inf if unusable."""
    got = np.asarray(got, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if got.shape != truth.shape or not np.all(np.isfinite(got)):
        return float("inf")
    return float(np.max(np.abs(got - truth)) / np.max(np.abs(truth)))


def frame_defect(X: np.ndarray) -> float:
    """||X^T J X - J||_F scaled by max(1, ||X||_F^2), the library's own measure."""
    n, k = X.shape[0] // 2, X.shape[1] // 2
    res = np.linalg.norm(X.T @ standard_J(n) @ X - standard_J(k))
    return float(res / max(1.0, float(np.linalg.norm(X)) ** 2))


def diag_m(A: np.ndarray, mean: str) -> np.ndarray:
    d = np.diag(A)
    n = d.shape[0] // 2
    return mean_pairs(mean, d[:n], d[n:])


class FloorMiss(str):
    """A wrong verdict that the library's documented absolute threshold allows.

    It is a failure, but of the known scale defect, not an unexplained wrong
    answer.
    """


class Oracle:
    """Applies the checks and keeps the largest error seen of each kind."""

    def __init__(self):
        self.tol = TOL
        self.worst = {"delta_rel_err_max": 0.0,
                      "reconstruction_residual_max": 0.0,
                      "symplectic_residual_max": 0.0}

    def _note(self, key: str, value: float) -> None:
        if np.isfinite(value):
            self.worst[key] = max(self.worst[key], value)

    def _close(self, what: str, got, truth, problems: list) -> float:
        err = rel_err(got, truth)
        if not err <= self.tol:
            problems.append(f"{what} off by {err:.3e} relative")
        return err

    def delta(self, got, truth) -> list:
        problems = []
        self._note("delta_rel_err_max", self._close("delta", got, truth, problems))
        return problems

    def factor(self, W, delta, A, truth) -> list:
        """A Williamson pair (W, delta) against A and its known spectrum."""
        problems = self.delta(delta, truth)
        W = np.asarray(W, dtype=float)
        if W.shape != A.shape or not np.all(np.isfinite(W)):
            return problems + [f"W has shape {W.shape} or non-finite entries"]
        d = np.concatenate([truth, truth])
        rec = float(np.linalg.norm(A - (W * d) @ W.T) / np.linalg.norm(A))
        sym = frame_defect(W)
        self._note("reconstruction_residual_max", rec)
        self._note("symplectic_residual_max", sym)
        if not rec <= self.tol:
            problems.append(f"reconstruction residual {rec:.3e}")
        if not sym <= self.tol:
            problems.append(f"symplecticity residual {sym:.3e}")
        return problems

    def schur(self, verdict, dm, delta, A, mean, truth, dominates=None) -> list:
        """A weak-supermajorization report on A against its known spectrum."""
        true_dm = diag_m(A, mean)
        problems = self.delta(delta, truth)
        self._close("diag_M", dm, true_dm, problems)
        slack = np.cumsum(np.sort(true_dm)) - np.cumsum(truth)
        # The verdict is judged relative to the sizes compared, at every
        # scale.  The library documents tol * max(1, |x|_1 + |y|_1), which
        # is absolute below unit scale; a True that only that floor allows
        # is a FloorMiss.
        size = float(true_dm.sum() + truth.sum())
        margin = self.tol * size
        if slack.min() > margin and verdict is not True:
            problems.append(f"verdict {verdict!r}, truth holds with slack {slack.min():.3e}")
        if slack.min() < -margin and verdict is not False:
            text = f"verdict {verdict!r}, truth fails with slack {slack.min():.3e}"
            floor = self.tol * max(1.0, size)
            problems.append(FloorMiss(text) if verdict is True and slack.min() >= -floor
                            else text)
        if dominates is not None and dominates != DOMINATES_GEOMETRIC[mean]:
            problems.append(f"dominance flag {dominates!r} for mean {mean}")
        return problems

    def realization(self, A_out, x, y, mean) -> list:
        """A matrix claimed to have diag_M = x and delta = sorted y."""
        A_out = np.asarray(A_out, dtype=float)
        n = len(x)
        if A_out.shape != (2 * n, 2 * n) or not np.all(np.isfinite(A_out)):
            return [f"realized matrix has shape {A_out.shape} or non-finite entries"]
        problems = []
        asym = np.linalg.norm(A_out - A_out.T) / np.linalg.norm(A_out)
        if not asym <= self.tol:
            problems.append(f"realized matrix asymmetric by {asym:.3e}")
        self._close("realized diag_M", diag_m(A_out, mean), x, problems)
        try:
            got = symplectic_spectrum(0.5 * (A_out + A_out.T))
        except np.linalg.LinAlgError:
            return problems + ["realized matrix is not positive definite"]
        self._close("realized delta", got, np.sort(y), problems)
        return problems

    def frame_value(self, X, value, A, mean, k) -> list:
        """A frame X whose objective is reported as ``value``."""
        X = np.asarray(X, dtype=float)
        n = A.shape[0] // 2
        if X.shape != (2 * n, 2 * k) or not np.all(np.isfinite(X)):
            return [f"frame has shape {X.shape} or non-finite entries"]
        problems = []
        defect = frame_defect(X)
        if not defect <= self.tol:
            problems.append(f"frame residual {defect:.3e}")
        d = np.einsum("il,il->l", X, A @ X)
        objective = float(np.sum(mean_pairs(mean, d[:k], d[k:])))
        self._close("frame objective", value, objective, problems)
        return problems

    def partial_sum(self, value, truth, k, expect) -> list:
        """``expect`` is "equal" for the exact minimum, "above" for a search."""
        bound = float(np.sum(truth[:k]))
        if expect == "equal":
            problems = []
            self._close("k-partial sum", value, bound, problems)
            return problems
        if not value >= bound * (1.0 - self.tol):
            return [f"objective {value!r} undercuts the bound {bound!r}"]
        return []


def parse_cli(fmt: str, stdout: str) -> dict:
    """Read a CLI report (JSON or the whitespace text form) into arrays.

    Matrices come back as 2-d arrays under their key; a bare matrix (the
    ``realize`` output) comes back under "rows".
    """
    if fmt == "json":
        obj = json.loads(stdout)
        return {key: val if isinstance(val, bool)
                else np.array(val["rows"] if isinstance(val, dict) else val)
                for key, val in obj.items()}
    lines = stdout.splitlines()
    if lines and ":" not in lines[0]:
        return {"rows": np.array([[float(t) for t in ln.split()] for ln in lines])}
    out, rows = {}, None
    for line in lines:
        if line.startswith("  "):
            rows.append([float(t) for t in line.split()])
            continue
        key, _, value = line.partition(":")
        value = value.strip()
        if not value:
            out[key] = rows = []
        elif value in ("true", "false"):
            out[key] = value == "true"
        else:
            out[key] = np.array([float(t) for t in value.split()])
    return {key: np.asarray(val) if isinstance(val, list) else val
            for key, val in out.items()}


def self_test() -> list:
    """Show the gate can fail: truths pass, 10x-tolerance perturbations do not.

    Returns the cases that misbehaved; empty means the oracle works.
    """
    rng = np.random.default_rng(12345)
    n, k, mean = 2, 2, "geometric"
    A, S, D = pd_with_spectrum(rng, n, 0.5, 4.0)
    x = diag_m(A, mean)
    J = standard_J(n)
    X = -J @ S @ J
    X = np.hstack([X[:, :k], X[:, n:n + k]])
    minimum = float(np.sum(D[:k]))
    bump = 1.0 + 10 * TOL
    cases = {
        "delta": (lambda o, f: o.delta(D * f, D)),
        "williamson W": (lambda o, f: o.factor(S * f, D, A, D)),
        "williamson delta": (lambda o, f: o.factor(S, D * f, A, D)),
        "schur diag_M": (lambda o, f: o.schur(True, x * f, D, A, mean, D, True)),
        "schur delta": (lambda o, f: o.schur(True, x, D * f, A, mean, D, True)),
        "realization": (lambda o, f: o.realization(A * f, x, D, mean)),
        "minimizer value": (lambda o, f: o.frame_value(X, minimum * f, A, mean, k)
                            + o.partial_sum(minimum * f, D, k, "equal")),
        "search value": (lambda o, f: o.partial_sum(minimum / f, D, k, "above")),
        "cli text delta": (lambda o, f: o.delta(parse_cli(
            "text", "delta: " + " ".join("%.17g" % v for v in D * f))["delta"], D)),
    }
    failures = []
    for name, case in cases.items():
        if case(Oracle(), 1.0):
            failures.append(f"{name}: truth rejected: {case(Oracle(), 1.0)}")
        if not case(Oracle(), bump):
            failures.append(f"{name}: 10x-tolerance perturbation accepted")
    return failures
