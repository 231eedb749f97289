"""One benchmark worker: a fresh interpreter that runs one workload's jobs.

    python bench/worker.py WORKLOAD SEED SECONDS MODE

run.py starts it from the checkout root with ``src`` on PYTHONPATH and BLAS
pinned to one thread.  The worker prints ``ready`` once sympectra is imported
and the first job has completed (the end of set-up).  In ``setup`` mode it
then exits; in ``run`` mode it times jobs for SECONDS; in ``trace`` mode it
times SECONDS/2 untraced and SECONDS/2 traced.  Either way it ends by
printing one JSON line with its results.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle
import tracer
from workloads import WORKLOADS, CliSpawn, Refused

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


class Tally:
    """Outcome of every checked call, by call name and cause."""

    def __init__(self, sp):
        self.refusals = (sp.SympectraError, Refused)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes = defaultdict(Counter)
        self.examples = {}

    def record(self, call, result, exc) -> None:
        self.attempted += 1
        if exc is None:
            try:
                problems = call.check(result)
            except Exception as err:  # an answer the oracle cannot even read
                problems = [f"unreadable result: {err!r}"]
            if not problems:
                return
            detail = "; ".join(problems)
            if all(isinstance(p, oracle.FloorMiss) for p in problems):
                cause = "verdict inside absolute floor"
            else:
                cause = "wrong answer"
                self.wrong += 1
        elif isinstance(exc, self.refusals):
            cause, detail = type(exc).__name__, str(exc)
        else:
            cause, detail = f"untyped {type(exc).__name__}", str(exc)
            self.wrong += 1
        self.failed += 1
        self.causes[call.name][cause] += 1
        self.examples.setdefault(f"{call.name}: {cause}", detail[:300])

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "causes": {k: dict(v) for k, v in self.causes.items()},
                "examples": self.examples}


def attempt(call):
    try:
        return call.run(), None
    except Exception as exc:  # a failing call is an outcome to count, not a crash
        return None, exc


def measure(wl, seconds, first_job, tally, trace=None, replay=None):
    """Closed loop, one client: run jobs back to back for ``seconds``.

    Only the calls are timed; inputs are built before and answers checked
    after each job.  The workload's probe is timed before each job.  Both
    start right after a collection of the cyclic garbage collector, as in
    timeit, which turns it off: otherwise a full collection of the
    benchmark's own heap, about 4 ms, lands in a job or a probe by chance
    and splits their times into two modes.  Returns the job latencies and
    probe times in ns and the next job index.
    """
    latencies, probes = [], []
    j = first_job
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        calls = wl.job(j)
        gc.collect()
        start = time.perf_counter_ns()
        wl.probe()
        probes.append(time.perf_counter_ns() - start)
        with trace.root("bench.job", j) if trace else contextlib.nullcontext():
            start = time.perf_counter_ns()
            outcomes = [attempt(c) for c in calls]
            latencies.append(time.perf_counter_ns() - start)
        if replay:
            replay(j, outcomes)
        for call, (result, exc) in zip(calls, outcomes):
            tally.record(call, result, exc)
        j += 1
    return latencies, probes, j


def spawn_ms(argv) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120)
    return (time.perf_counter() - start) * 1e3, proc


def interpreter_ms() -> float:
    """Median wall time of a bare interpreter with the same flags, three spawns."""
    return statistics.median(spawn_ms(["-X", "importtime", "-c", "pass"])[0]
                             for _ in range(3))


def start_profile(argv) -> dict:
    """cli.start.* from three ``-X importtime`` runs of one CLI command (medians)."""
    splits = [tracer.import_split(spawn_ms(["-X", "importtime", "-m", "sympectra",
                                            *argv])[1].stderr) for _ in range(3)]
    out = {f"cli.start.{b}_ms": statistics.median(s[b] for s in splits)
           for b in tracer.IMPORT_BUCKETS}
    out["cli.start.interpreter_ms"] = interpreter_ms()
    return out


def traced_phase(sp, wl, seed, seconds, first_job, tally):
    """Trace ``seconds`` of jobs; return per-job layer metrics."""
    trace = tracer.Tracer()
    spawns = []
    replay = None
    if isinstance(wl, CliSpawn):
        wl.flags = ["-X", "importtime"]
        interp = interpreter_ms()

        def replay(j, outcomes):
            # The spawned child cannot be traced from here, so its argv is run
            # again in this process to get the cli.main and io.* spans.
            proc = outcomes[0][0]
            spawns.append(tracer.import_split(proc.stderr if proc else ""))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    trace.root("bench.replay", j):
                sp.cli.main(wl.argv(j))
    trace.install()
    try:
        latencies, _, _ = measure(wl, seconds, first_job, tally, trace, replay)
    finally:
        trace.restore()
        wl.flags = []
    trace.write(OUT / f"spans-{wl.name}-seed{seed}.json")

    jobs = len(latencies)
    calls, self_ns, total_ns = tracer.span_totals(trace.spans)
    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = calls[name] / jobs
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6 / jobs
    for name in tracer.ENTRY_POINTS:
        metrics[f"{name}.total_ms"] = total_ns[name] / 1e6 / jobs
    metrics["linalg.decompositions"] = sum(calls[k] for k in tracer.DECOMPOSITIONS) / jobs
    if isinstance(wl, CliSpawn):
        start = {f"cli.start.{b}_ms": statistics.fmean(s[b] for s in spawns)
                 for b in tracer.IMPORT_BUCKETS}
        start["cli.start.interpreter_ms"] = interp
        accounted = sum(start.values()) + metrics["cli.main.total_ms"]
        metrics["bench.unattributed_ms"] = statistics.fmean(latencies) / 1e6 - accounted
    else:
        start = start_profile(CliSpawn(sp, seed, wl.orc, OUT / f"cli-{seed}").argv(0))
        metrics["bench.unattributed_ms"] = self_ns["bench.job"] / 1e6 / jobs
    metrics.update(start)
    return metrics, latencies


def versions() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def peak_rss_mb(wl) -> float:
    """Peak resident set of this worker, or of the largest CLI child for cli-spawn."""
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliSpawn) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    # One CPU for the worker and the CLI processes it starts, so a run does
    # not mix speeds of CPUs that differ in interrupt load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name]
    if workload is CliSpawn:
        import sympectra.cli  # a CLI user's set-up includes the CLI module
    import sympectra as sp

    orc = oracle.Oracle()
    wl = workload(sp, seed, orc, OUT / f"cli-{seed}")
    for call in wl.job(0):  # the first job ends set-up
        attempt(call)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    gc.freeze()  # the import-time heap stays out of the per-job collections

    tally = Tally(sp)
    result = {"self_test": oracle.self_test(), "versions": versions()}
    if mode == "run":
        result["latencies_ns"], probes, _ = measure(wl, seconds, 0, tally)
        result["probe_ms"] = statistics.median(probes) / 1e6
        result["peak_rss_mb"] = peak_rss_mb(wl)
    else:
        untraced, _, next_job = measure(wl, seconds / 2, 0, tally)
        layers, traced = traced_phase(sp, wl, seed, seconds / 2, next_job, tally)
        layers["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(untraced)
        layers.update({f"accuracy.{k}": v for k, v in orc.worst.items()})
        result["layers"] = layers
    result["tally"] = tally.summary()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
