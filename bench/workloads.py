"""The benchmark workloads, each a stream of seeded jobs of uniform cost.

A job is a list of calls.  Job j of a workload draws its inputs from
numpy's generator seeded with (seed, j), so a run's inputs depend on the
seed alone and never on the library (``sympectra.random_pd`` and
``random_symplectic`` are not used).  Every call carries the check that
the oracle applies to its answer after the job, outside the timed region.

Why these four: calls-small is where Python overhead, re-validation and
the means and majorization layers set the cost; calls-dense is where the
O(n^3) kernels do; frame-search is where the batched matrix exponentials
of kyfan_search do; cli-spawn is where interpreter start-up, imports and
serialization do.  frame-search is left out of BENCHMARK.json because it
is not steady enough to gate on (bench/plan.json says why).

Each workload also has a ``probe``: a fixed reference computation of the
same kind as its jobs that never calls the library.  It is timed before
every job, outside the timed region, and tracks the speed of the host,
which on shared machines drifts by up to 2x over minutes.
``PROBE_REFERENCE_MS`` is the probe's time on the host the bounds were
tuned on (2 vCPUs, quiet).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


class Refused(Exception):
    """The CLI exited with one of its typed-error codes (2 input, 3 numerical)."""


SPAWN_PROBE_REFERENCE_MS = 125.0


def spawn_probe(env=None) -> None:
    """Start an interpreter that imports numpy: the reference for start-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env or os.environ,
                   check=True, capture_output=True, timeout=120)


def heronian(a, b):
    """(a + sqrt(ab) + b) / 3 through math.sqrt: scalar-only on purpose."""
    return (a + math.sqrt(a * b) + b) / 3.0


def eig_call(sp, orc, A, D):
    return Call("symplectic_eigenvalues", lambda: sp.symplectic_eigenvalues(A),
                lambda r: orc.delta(r, D))


def williamson_call(sp, orc, A, D):
    return Call("williamson", lambda: sp.williamson(A),
                lambda f: orc.factor(f.W, f.delta, A, D))


def schur_call(sp, orc, A, D, mean, spec):
    return Call("schur_check", lambda: sp.schur_check(A, spec),
                lambda r: orc.schur(r.verdict, r.diag_m, r.delta, A, mean, D,
                                    r.mean_dominates_geometric))


def realize_call(sp, orc, x, y, mean, spec):
    return Call("horn_symplectic_realize",
                lambda: sp.horn_symplectic_realize(x, y, spec),
                lambda B: orc.realization(B, x, y, mean))


def kyfan_min_call(sp, orc, A, D, k, mean, spec):
    return Call("kyfan_minimizer", lambda: sp.kyfan_minimizer(A, k, spec),
                lambda r: (orc.frame_value(r.minimizer, r.min_value, A, mean, k)
                           + orc.partial_sum(r.min_value, D, k, "equal")
                           + orc.partial_sum(r.delta_partial_sum, D, k, "equal")))


def search_problems(orc, A, D, k, mean, budget, frame, best, partial,
                    violations, samples) -> list:
    problems = []
    if violations != 0 or samples != budget:
        problems.append(f"{violations} violations in {samples} of {budget} samples")
    return (problems + orc.partial_sum(partial, D, k, "equal")
            + orc.partial_sum(best, D, k, "above")
            + orc.frame_value(frame, best, A, mean, k))


class CallsSmall:
    """Four rounds of n in {1, 2, 4} and five calls each; the fourth round is scaled.

    The mean is one per job and rotates over MEANS.  Four rounds give every
    job the same make-up, one scaled round in four, where one job in four
    scaled would put cheap failing jobs and full ones in one population.
    The scaled round multiplies A, x and y by 2^e, with e walking through a
    seeded permutation of -120..120, so every run of a few hundred jobs
    sees the whole range in the same proportions.
    """

    name = "calls-small"
    MEANS = ("geometric", "arithmetic", "harmonic", "power:2", "heronian")
    PROBE_REFERENCE_MS = 0.84

    def __init__(self, sp, seed: int, orc, work: Path):
        self.sp, self.seed, self.orc = sp, seed, orc
        self.specs = {name: sp.parse_mean(name) for name in self.MEANS[:-1]}
        self.specs["heronian"] = sp.custom_mean(heronian)
        self.exponents = np.random.default_rng([seed, 1]).permutation(np.arange(-120, 121))
        rng = np.random.default_rng(0)
        self.reference = [oracle.pd_with_spectrum(rng, n, 0.5, 4.0)[0] for n in (1, 2, 4)]

    def probe(self) -> None:
        """The oracle's small-matrix routines on fixed inputs, four rounds."""
        for A in self.reference * 4:
            oracle.symplectic_spectrum(A)
            oracle.diag_m(A, "geometric")
            oracle.frame_defect(np.eye(A.shape[0]))

    def job(self, j: int) -> list:
        sp, orc = self.sp, self.orc
        rng = np.random.default_rng([self.seed, j])
        mean = self.MEANS[j % len(self.MEANS)]
        spec = self.specs[mean]
        scaled = 2.0 ** int(self.exponents[j % len(self.exponents)])
        calls = []
        for c in (1.0, 1.0, 1.0, scaled):
            for n in (1, 2, 4):
                A, _, D = oracle.pd_with_spectrum(rng, n, 0.5, 4.0, c)
                x, y = oracle.supermajorized_targets(rng, n, 0.5, 4.0, c)
                calls += [eig_call(sp, orc, A, D), williamson_call(sp, orc, A, D),
                          schur_call(sp, orc, A, D, mean, spec),
                          realize_call(sp, orc, x, y, mean, spec),
                          kyfan_min_call(sp, orc, A, D, min(2, n), mean, spec)]
        return calls


class CallsDense:
    """n = 64 (order 128), unit scale, delta log-uniform over [0.1, 10]."""

    name = "calls-dense"
    PROBE_REFERENCE_MS = 2.0

    def __init__(self, sp, seed: int, orc, work: Path):
        self.sp, self.seed, self.orc = sp, seed, orc
        self.geometric = sp.parse_mean("geometric")
        self.reference = oracle.pd_with_spectrum(np.random.default_rng(0), 64, 0.1, 10.0)[0]

    def probe(self) -> None:
        """The oracle's Cholesky plus Hermitian eigvalsh at order 128."""
        oracle.symplectic_spectrum(self.reference)

    def job(self, j: int) -> list:
        sp, orc = self.sp, self.orc
        rng = np.random.default_rng([self.seed, j])
        A, _, D = oracle.pd_with_spectrum(rng, 64, 0.1, 10.0)
        x, y = oracle.supermajorized_targets(rng, 64, 0.1, 10.0)
        return [eig_call(sp, orc, A, D), williamson_call(sp, orc, A, D),
                schur_call(sp, orc, A, D, "geometric", self.geometric),
                realize_call(sp, orc, x, y, "geometric", self.geometric)]


class FrameSearch:
    """Four kyfan_search(k=2, budget=1000) at n = 4 per job, one per mean.

    The means all dominate the geometric mean, so any violation is a
    failure.  The search seed is 4j + i.  A search costs one of two amounts
    depending on its samples (expm_batch squares once more when the batch
    norm is larger), about evenly; with one search per job the median sat
    between the two and jumped from run to run, with four it falls inside
    the middle of five modes.
    """

    name = "frame-search"
    MEANS = ("geometric", "arithmetic", "power:2", "max")
    BUDGET = 1000
    PROBE_REFERENCE_MS = 0.6

    def __init__(self, sp, seed: int, orc, work: Path):
        self.sp, self.seed, self.orc = sp, seed, orc
        self.specs = {name: sp.parse_mean(name) for name in self.MEANS}
        rng = np.random.default_rng(0)
        self.reference = rng.normal(size=(250, 8, 8)) + 8.0 * np.eye(8)

    def probe(self) -> None:
        """Batched order-8 products, solves and an einsum on fixed inputs."""
        M = self.reference
        P = M @ M @ M
        np.einsum("mil,mil->ml", np.linalg.solve(M, P), M)

    def search_call(self, A, D, mean: str, seed: int) -> Call:
        orc, budget = self.orc, self.BUDGET

        def check(r):
            return search_problems(orc, A, D, 2, mean, budget, r.best_frame, r.best_value,
                                   r.delta_partial_sum, r.violations, r.n_samples)
        return Call("kyfan_search",
                    lambda: self.sp.kyfan_search(A, 2, self.specs[mean], budget=budget,
                                                 seed=seed),
                    check)

    def job(self, j: int) -> list:
        rng = np.random.default_rng([self.seed, j])
        calls = []
        for i, mean in enumerate(self.MEANS):
            A, _, D = oracle.pd_with_spectrum(rng, 4, 0.5, 4.0)
            calls.append(self.search_call(A, D, mean, 4 * j + i))
        return calls


class CliSpawn:
    """One ``python -m sympectra`` process per job on fixed n = 3 inputs.

    Jobs rotate over five subcommands and alternate JSON and text output, so
    every ten jobs cover each (command, format) pair once.  Each stdout must
    match, byte for byte, the first stdout seen for its pair.
    """

    name = "cli-spawn"
    COMMANDS = ("eig", "williamson", "schur-check", "realize", "kyfan-search")
    BUDGET = 1000
    PROBE_REFERENCE_MS = SPAWN_PROBE_REFERENCE_MS

    def __init__(self, sp, seed: int, orc, work: Path):
        self.orc = orc
        self.flags = []  # extra interpreter flags, e.g. -X importtime when traced
        rng = np.random.default_rng([seed, 0])
        self.A, _, self.D = oracle.pd_with_spectrum(rng, 3, 0.5, 4.0)
        self.x, self.y = oracle.supermajorized_targets(rng, 3, 0.5, 4.0)
        work.mkdir(parents=True, exist_ok=True)
        self.paths = {"a": work / "a.json", "x": work / "x.json", "y": work / "y.json"}
        self.paths["a"].write_text(json.dumps({"n": 3, "rows": self.A.tolist()}))
        self.paths["x"].write_text(json.dumps(self.x.tolist()))
        self.paths["y"].write_text(json.dumps(self.y.tolist()))
        self.first = {}

    def probe(self) -> None:
        spawn_probe()

    def argv(self, j: int) -> list:
        cmd = self.COMMANDS[j % len(self.COMMANDS)]
        args = [cmd, "--format", ("json", "text")[j % 2]]
        if cmd == "realize":
            return args + ["--x", str(self.paths["x"]), "--y", str(self.paths["y"])]
        args += ["--in", str(self.paths["a"])]
        if cmd == "kyfan-search":
            args += ["--k", "2", "--budget", str(self.BUDGET)]
        return args

    def spawn(self, argv: list) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *self.flags, "-m", "sympectra", *argv],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode in (2, 3):
            raise Refused(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc

    def job(self, j: int) -> list:
        argv = self.argv(j)
        return [Call("cli." + argv[0], lambda: self.spawn(argv),
                     lambda proc: self.check(argv[0], argv[2], proc))]

    def check(self, cmd: str, fmt: str, proc) -> list:
        orc, A, D = self.orc, self.A, self.D
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}"]
        first = self.first.setdefault((cmd, fmt), proc.stdout)
        problems = [] if proc.stdout == first else ["stdout differs from an earlier repeat"]
        out = oracle.parse_cli(fmt, proc.stdout)
        if cmd == "eig":
            return problems + orc.delta(out["delta"], D)
        if cmd == "williamson":
            return problems + orc.factor(out["W"], out["delta"], A, D)
        if cmd == "schur-check":
            return problems + orc.schur(out["verdict"], out["diag_m"], out["delta"],
                                        A, "geometric", D)
        if cmd == "realize":
            return problems + orc.realization(out["rows"], self.x, self.y, "geometric")
        return problems + search_problems(
            orc, A, D, 2, "geometric", self.BUDGET, out["frame"],
            float(np.ravel(out["best_value"])[0]), float(np.ravel(out["delta_partial"])[0]),
            int(np.ravel(out["violations"])[0]), int(np.ravel(out["n_samples"])[0]))


WORKLOADS = {w.name: w for w in (CallsSmall, CallsDense, FrameSearch, CliSpawn)}
