#!/usr/bin/env python3
"""The neargroup benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (worker.py), so module caches start empty as they do for a CLI
user.  With ``--trace 0`` the run measures set-up time in several fresh
interpreters and then runs passes for about ``--seconds`` seconds, and
reports the end-to-end metrics, with times in reference seconds (worker.py
says how they follow from the measured times).  With ``--trace 1`` it runs
one untraced and two traced passes, reports the per-layer metrics, the
measured wall time and the tracing overhead (in reference seconds), and fails
if a deterministic counter differs between the two traced passes.
Every job's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 5  # set-up-only interpreters per untraced run
WORKER_TIMEOUT = 170.0
# The package's numpy work is on matrices of a few dozen entries, where
# OpenBLAS threads only spin: with two threads a pass burns about 1.5x its
# wall time in CPU and its wall time follows the load on the other core.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def spawn(workload: str, seed: int, mode: str, trace: int = 0) -> dict:
    """Run worker.py once; return its result with ``setup_s`` (start of the
    interpreter to inputs ready, as measured), ``setup_ref_s`` (the same in
    reference seconds, see worker.py) and ``process_s`` (the whole process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    t1 = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker failed ({mode}, exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0 - result["setup_handler_s"]
    result["setup_ref_s"] = result["setup_s"] * result["setup_speed"]
    result["process_s"] = t1 - t0
    return result


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    passes, traced, setups = [], [], []
    if trace:
        passes.append(spawn(workload, seed, "pass"))
        for _ in range(2):
            traced.append(spawn(workload, seed, "pass", 1))
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, "setup"))
        while True:
            p = spawn(workload, seed, "pass")
            passes.append(p)
            setups.append(p)
            if time.monotonic() - start + p["process_s"] > seconds:
                break

    report(passes + traced, setups)
    job_results = [j for p in passes + traced for j in p["jobs"]]
    failed = sum(bool(j["problems"]) for j in job_results)
    wall = statistics.median(p["wall_s"] for p in passes)
    if trace:
        first, second = (p["layers"] for p in traced)
        differ = [k for k in tracer.DETERMINISTIC if first[k] != second[k]]
        if differ:
            raise SystemExit("perfbench: deterministic counters differ between "
                             "traced passes: " + ", ".join(
                                 f"{k} {first[k]} != {second[k]}" for k in differ))
        values = {k: statistics.median(p["layers"][k] for p in traced) for k in first}
        values["trace_overhead_s"] = (statistics.median(
            p["wall_ref_s"] for p in traced) - passes[0]["wall_ref_s"])
        values["wall_raw_s"] = wall
    else:
        values = {
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    print("environment " + json.dumps(passes[0]["environment"]))
    return {"correct": failed == 0, "attempted": len(job_results),
            "failed": failed, "values": values}


def report(passes: list[dict], setups: list[dict]) -> None:
    """Human-readable lines: each job's median time as measured and in
    reference seconds and any failed check, then each pass and set-up."""
    names = [j["name"] for j in passes[0]["jobs"]]
    for name in names:
        runs = [j for p in passes for j in p["jobs"] if j["name"] == name]
        problems = sorted({msg for j in runs for msg in j["problems"]})
        print(f"job {name:28s} {statistics.median(j['s'] for j in runs):9.3f} s"
              f" ({statistics.median(j['ref_s'] for j in runs):.3f} ref)"
              + ("  FAILED: " + "; ".join(problems) if problems else ""))
    print("pass wall_s " + " ".join(
        f"{p['wall_s']:.3f} ({p['wall_ref_s']:.3f} ref)" for p in passes))
    if setups:
        print("setup_s " + " ".join(
            f"{p['setup_s']:.3f} ({p['setup_ref_s']:.3f} ref)" for p in setups))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = run(args.workload, args.seed, args.seconds, args.trace)
    missing = [m["name"] for m in wanted if m["name"] not in out["values"]]
    if missing:
        raise SystemExit(f"perfbench: no value for metrics {missing}")
    metrics = {m["name"]: {"value": out["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
