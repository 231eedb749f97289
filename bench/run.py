"""Benchmark for sympectra: closed-loop workloads checked by a truth oracle.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports sympectra from ``src/``.
``--seconds`` is part of the benchmark's command line and is given
``run_seconds`` from BENCHMARK.json, which is also its default; the bounds in
BENCHMARK.json hold for runs of that length.

Each workload runs in fresh worker interpreters (one client, BLAS pinned to
one thread).  ``--trace 0`` reports the end-to-end metrics declared in
BENCHMARK.json; ``--trace 1`` reports the per-layer metrics from a traced run.

jobs_per_s, job_p50_ms and setup_s are given at the reference host speed:
a shared host's speed drifts by up to 2x over minutes, which no run length
averages out.  Each run times a fixed probe that never calls the library
(see workloads.py) before every job, and next to every worker start-up;
job times are scaled by reference probe time / measured probe time, and
set-up times by the same ratio for the start-up probe.  job_tail_ms is
left as measured: the slowest jobs are set by interruptions whose length
does not follow the host's speed, and scaling it doubled its spread.  The
measured times, the probe times and the ratios are printed and kept in
the record.

The table goes to stdout, the full record (provenance, failure causes, tail
percentile) to ``.bench_out/``, and the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Two failure counts are kept apart.  ``failed`` in the last line counts the
calls that break the library's contract: a wrong or non-finite answer, or an
exception that is not one of its typed errors; each makes ``correct`` false,
so a correct run reports 0 on every workload.  ``fail_ratio`` counts every
call the oracle does not pass, including typed refusals and verdicts that
only the library's absolute tolerance floor allows.  Those come from the
known scale defect on calls-small's scaled share, so they are reported, as
``pass_ratio`` = 1 - fail_ratio among the end-to-end metrics and in full in
the record, instead of being hidden or counted as wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SPAWN_PROBE_REFERENCE_MS, WORKLOADS, spawn_probe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5  # setup_s is the median over this many fresh workers
TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn_worker(workload, seed, seconds, mode):
    """Start a worker; return (process, seconds until it printed 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), workload, str(seed),
         str(seconds), mode],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    """Wait for a worker (killing it after TIMEOUT_S) and return its stdout."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def timed_spawn_probe() -> float:
    start = time.perf_counter()
    spawn_probe(worker_env())
    return time.perf_counter() - start


def run_workload(workload, seed, seconds, trace) -> tuple:
    """Run one workload; return (worker result, set-up times in s, start-up probe times in s)."""
    setups, probes = [], []
    for _ in range(0 if trace else SETUP_SPAWNS - 1):
        probes.append(timed_spawn_probe())
        proc, ready = spawn_worker(workload, seed, seconds, "setup")
        finish(proc)
        setups.append(ready)
    probes.append(timed_spawn_probe())
    proc, ready = spawn_worker(workload, seed, seconds, "trace" if trace else "run")
    setups.append(ready)
    return json.loads(finish(proc).strip().splitlines()[-1]), setups, probes


def tail(latencies_ms) -> tuple:
    """Latency at the highest percentile that has at least 10 samples beyond it."""
    ordered = sorted(latencies_ms)
    beyond = 10 if len(ordered) > 10 else 0
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def end_to_end(workload, result, setups, probes) -> tuple:
    """(metrics, measured times before scaling with the speed ratios, tail info)."""
    lat_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    tally = result["tally"]
    value, pct, beyond = tail(lat_ms)
    measured = {
        "jobs_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "job_p50_ms": statistics.median(lat_ms),
        "setup_s": statistics.median(setups),
    }
    # > 1 when the host runs slower than the reference host.
    slowdown = result["probe_ms"] / WORKLOADS[workload].PROBE_REFERENCE_MS
    start_slowdowns = [p * 1e3 / SPAWN_PROBE_REFERENCE_MS for p in probes]
    metrics = {
        "jobs_per_s": measured["jobs_per_s"] * slowdown,
        "job_p50_ms": measured["job_p50_ms"] / slowdown,
        "job_tail_ms": value,
        "pass_ratio": 1.0 - tally["failed"] / tally["attempted"],
        "setup_s": statistics.median(s / d for s, d in zip(setups, start_slowdowns)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    speed = {"measured": measured, "probe_ms": result["probe_ms"], "slowdown": slowdown,
             "start_probe_s": probes,
             "start_slowdown": statistics.median(start_slowdowns)}
    return metrics, speed, {"percentile": pct, "samples_beyond": beyond, "jobs": len(lat_ms)}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_commit():
    """HEAD of the checkout's git repository, or None when it is not one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(trace) -> dict:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def bench(workload, seed, seconds, trace) -> dict:
    result, setups, probes = run_workload(workload, seed, seconds, trace)
    tally = result["tally"]
    if trace:
        metrics = dict(result["layers"], **{"code.src_lines": src_lines()})
        speed = tail_info = None
    else:
        metrics, speed, tail_info = end_to_end(workload, result, setups, probes)
    units = declared(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    correct = not result["self_test"] and tally["wrong"] == 0
    line = {"correct": correct, "attempted": tally["attempted"], "failed": tally["wrong"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = dict(line, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  fail_ratio=tally["failed"] / tally["attempted"], tally=tally,
                  oracle_self_test=result["self_test"] or "passed",
                  job_tail=tail_info, setup_samples_s=setups, speed=speed,
                  provenance=dict(result["versions"], nproc=os.cpu_count(),
                                  git_commit=git_commit(), seed=seed,
                                  src_lines=src_lines()))
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))
    report(record, units, path)
    return line


def report(record, units, path) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  "
          f"trace {record['trace']}  correct {record['correct']}")
    speed = record["speed"]
    for name, unit in units.items():
        note = ""
        if speed and name in speed["measured"]:
            note = f"  (measured {speed['measured'][name]:.6g})"
        if name == "job_tail_ms":
            t = record["job_tail"]
            note += f"  (p{t['percentile']:.2f} of {t['jobs']} jobs, {t['samples_beyond']} beyond)"
        print(f"  {name:44s} {record['metrics'][name]['value']:14.6g} {unit}{note}")
    if speed:
        print(f"  {'host slowdown (jobs, start-up)':44s} {speed['slowdown']:14.6g} "
              f"{speed['start_slowdown']:.6g}  (probe {speed['probe_ms']:.6g} ms)")
    tally = record["tally"]
    print(f"  {'fail_ratio':44s} {record['fail_ratio']:14.6g} "
          f"({tally['failed']} of {tally['attempted']} calls; {tally['wrong']} wrong answers)")
    for call, causes in tally["causes"].items():
        print(f"    {call}: {causes}")
    print(f"  record: {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default and intended value: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "sympectra" / "__init__.py").is_file():
        print(f"error: no sympectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {name: bench(name, args.seed, args.seconds, args.trace) for name in names}
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
