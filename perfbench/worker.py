"""One pass of a workload in a fresh interpreter.

``--mode setup`` imports the package and prepares the inputs, then exits;
``--mode pass`` goes on to run every job, with the tracer installed when
``--trace 1``.  The last line of standard output is a JSON object; run.py
starts this script and reads it.

A speed sampler runs alongside from before the package import:
every 0.1 s of wall time a timer signal interrupts the program and times a
fixed pure-Python kernel (about 1 ms).  On a host shared with other tenants
(the 2-core KVM guest of the recorded figures is one) the same pass takes
anywhere from 1x to 2x its fastest time depending on the load next door; the
kernel's time tracks that load.  Each interval is reported twice: as
measured (handler time taken out) and in reference seconds,
``dt * mean(REFERENCE_KERNEL_S / kernel time)`` over the samples that fall
in it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import time

import jobs
import tracer

REFERENCE_KERNEL_S = 0.001
SAMPLE_INTERVAL_S = 0.1


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(9000):
        acc += (i % 7) * 0.5
        table[i % 101] = acc
    return time.perf_counter() - t0


class SpeedSampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.spent = 0.0  # wall time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, _kernel()))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def speed(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]: the mean of
        REFERENCE_KERNEL_S / kernel time over the samples in it (the samples
        are evenly spaced in time), or over every sample if none fell in it."""
        inside = [d for t, d in self.samples if t0 <= t <= t1] or [
            d for _, d in self.samples]
        if not inside:
            return 1.0
        return sum(REFERENCE_KERNEL_S / d for d in inside) / len(inside)


def environment() -> dict:
    """The machine and the numerical stack the figures were measured on."""
    import ctypes
    import importlib.util
    import os
    import platform

    import numpy
    import scipy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.machine())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "sympy_ground_types": GROUND_TYPES,
        "absent": [m for m in ("gmpy2", "flint", "numba")
                   if importlib.util.find_spec(m) is None],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sampler = SpeedSampler()
    sampler.start()
    t_start = time.perf_counter()
    jobs.import_package()
    tr = None
    if args.trace:
        from neargroup.solvers import SolveConfig

        tr = tracer.Tracer(clock=lambda: time.perf_counter() - sampler.spent)
        tracer.install(tr, SolveConfig().newton_tol)
    job_list = jobs.build(args.workload, args.seed)
    t_ready = time.perf_counter()
    result = {"ready": time.monotonic(), "setup_handler_s": sampler.spent,
              "setup_speed": sampler.speed(t_start, t_ready)}

    if args.mode == "pass":
        outputs, errors, seconds, ref = [], [], [], []
        for job in job_list:
            if tr is not None:
                tr.label = job.label
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                outputs.append(job.run())
                errors.append(None)
            except Exception as exc:  # a failed job is counted, not fatal
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            seconds.append(t1 - t0 - (sampler.spent - spent))
            ref.append(seconds[-1] * sampler.speed(t0, t1))
        t_done = time.perf_counter()
        sampler.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_s"] = sum(seconds)
        speed = sampler.speed(t_ready, t_done)
        result["wall_ref_s"] = sum(seconds) * speed
        if tr is not None:
            # checks below call residuals of their own; keep them untraced
            tr.uninstall()
            # layer times in reference seconds, like wall_ref_s
            result["layers"] = {
                k: v * speed if k.endswith((".s", ".self_s")) else v
                for k, v in tracer.layer_metrics(tr, jobs.ORACLE_ROWS).items()}
        result["jobs"] = []
        for job, out, err, s, r in zip(job_list, outputs, errors, seconds, ref):
            try:
                problems = [err] if err else job.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            result["jobs"].append({"name": job.name, "s": s, "ref_s": r,
                                   "problems": problems})
    sampler.stop()
    result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
