"""Outside-in tracing: spans around calls into sympectra and its kernels.

``Tracer.install`` replaces each listed public function, in every
``sympectra.*`` namespace that binds it, with a wrapper that records a span
(id, parent id, name, start ns, end ns, job id); the listed numpy/scipy
kernels are wrapped the same way on their own modules.  Nothing under
``src/`` changes, and ``restore`` puts every original name back.  Spans are
only recorded inside a job's root span, so the oracle's own numpy calls
between jobs are never counted.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer -> public functions, named as <layer>.<function> in the metrics.
PUBLIC = {
    "spectral": ("validate_pd", "sqrtm_pd", "symplectic_eigenvalues", "williamson",
                 "symplectic_diag"),
    "symplectic": ("standard_J", "is_symplectic", "expanding_sum", "check_frame",
                   "expm_batch"),
    "means": ("evaluate", "evaluate_pairs", "dominates_geometric"),
    "majorization": ("weak_supermajorize", "majorize", "intermediate_vector",
                     "horn_realize"),
    "schur_horn": ("schur_check", "sl2_for_ratio", "horn_symplectic_realize",
                   "kyfan_objective", "kyfan_minimizer", "kyfan_search"),
    "io": ("parse_matrix", "parse_vector", "dumps", "render_text"),
    "cli": ("main",),
}
KERNELS = {
    "numpy.linalg": ("eigvalsh", "eigh", "cholesky", "solve"),
    "scipy.linalg": ("schur", "block_diag"),
}
# The six public operations and the CLI entry point also get inclusive time.
ENTRY_POINTS = ("spectral.symplectic_eigenvalues", "spectral.williamson",
                "schur_horn.schur_check", "schur_horn.horn_symplectic_realize",
                "schur_horn.kyfan_minimizer", "schur_horn.kyfan_search", "cli.main")
DECOMPOSITIONS = ("numpy.linalg.eigvalsh", "numpy.linalg.eigh",
                  "numpy.linalg.cholesky", "scipy.linalg.schur")
IMPORT_BUCKETS = ("numpy", "scipy", "sympectra")
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "job")


def span_names() -> list:
    return ([f"{layer}.{fn}" for layer, fns in PUBLIC.items() for fn in fns]
            + [f"{mod}.{fn}" for mod, fns in KERNELS.items() for fn in fns])


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._ids = itertools.count(1)
        self._undo = []

    def _wrap(self, name, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self._job))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function that exists in an already-imported module."""
        ours = [m for key, m in list(sys.modules.items())
                if key == "sympectra" or key.startswith("sympectra.")]
        targets = [(f"{layer}.{fn}", sys.modules.get(f"sympectra.{layer}"), fn)
                   for layer, fns in PUBLIC.items() for fn in fns]
        targets += [(f"{mod}.{fn}", sys.modules.get(mod), fn)
                    for mod, fns in KERNELS.items() for fn in fns]
        for name, owner, attr in targets:
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            traced = self._wrap(name, orig)
            for module in [owner] + [m for m in ours if m is not owner]:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)
                        self._undo.append((module, key, orig))

    def restore(self) -> None:
        for module, key, orig in reversed(self._undo):
            setattr(module, key, orig)
        self._undo.clear()

    @contextmanager
    def root(self, name: str, job: int):
        """A root span; calls into wrapped functions inside it become its children."""
        sid = next(self._ids)
        self._job = job
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, name, start, end, job))
            self._job = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def span_totals(spans) -> tuple:
    """Per span name: call count, self ns, and inclusive ns of outermost calls.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the benchmark is single-threaded.
    """
    by_id = {s[0]: s for s in spans}
    covered = Counter()
    for sid, parent, name, start, end, job in spans:
        if parent:
            covered[parent] += end - start
    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    for sid, parent, name, start, end, job in spans:
        calls[name] += 1
        self_ns[name] += end - start - covered[sid]
        if name in ENTRY_POINTS:
            p = parent
            while p and by_id[p][2] != name:
                p = by_id[p][1]
            if not p:
                total_ns[name] += end - start
    return calls, self_ns, total_ns


def import_split(stderr: str) -> dict:
    """Self import time in ms per package from ``python -X importtime`` output.

    Each module's self time goes to the nearest enclosing import (itself
    included) of the top-level ``numpy`` package, of a ``scipy`` module or
    of a ``sympectra`` module; the rest goes to "other".  So numpy_ms is the
    cost of ``import numpy``, and numpy submodules that scipy pulls in count
    as scipy.  Lines are printed children first, so they are read in reverse.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(self_us)))
    totals = dict.fromkeys(IMPORT_BUCKETS + ("other",), 0.0)
    stack = []
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if name == "numpy" or top in ("scipy", "sympectra"):
            bucket = top
        else:
            bucket = stack[-1][1] if stack else "other"
        stack.append((depth, bucket))
        totals[bucket] += self_us / 1000.0
    return totals
