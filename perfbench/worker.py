"""One benchmark process: set up a workload, then run its jobs.

Started by run.py with a fixed environment. It prints `ready` on its own
line as soon as set-up is done (run.py times the fresh start to that line),
and its result as one JSON object on the last line of standard output.

Modes: `setup` stops after set-up; `run` times the jobs untraced; `trace`
also instruments the package and writes every span to `--trace-out`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib

from checks import Mismatch


def job_rng(seed: int, workload: str, index: int):
    """The generator of job `index` (0 is the warm-up) of a workload."""
    import numpy as np
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode()), index])


class Runner:
    """Times the program calls of each operation and checks their outputs."""

    LOGGED_FAILURES = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.logged = 0

    def _log(self, text: str) -> None:
        if self.logged < self.LOGGED_FAILURES:
            print(text, file=sys.stderr)
        self.logged += 1

    def run(self, ops, count: bool = True) -> float:
        """Run ops in order; returns the summed time of their program calls."""
        busy = 0.0
        clock = time.perf_counter
        for op in ops:
            error = None
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a raising program call is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            busy += clock() - t0
            if error is None:
                try:
                    op.check(out)
                except Mismatch as exc:
                    error = str(exc)
                except Exception as exc:  # an output the check cannot even read
                    error = f"malformed output, {type(exc).__name__}: {exc}"
            if count:
                self.attempted += 1
            if error is not None:
                if count:
                    self.failed += 1
                if not op.fault:
                    self.correct = False
                    self._log(f"FAIL {op.name}: {error}")
        return busy


# Time of one `SpeedProbe()` call between jobs on this 2-CPU host in its
# usual state (about 10 ms; host drift moves it by up to a third). Job
# times are scaled by REFERENCE_PROBE_S / probe time, so they read as times
# at that host speed; see README.md, "Host drift".
REFERENCE_PROBE_S = 0.010


class SpeedProbe:
    """Times a fixed mix of the three kinds of work the jobs do:
    interpreter-bound (small-array numpy calls in a Python loop), vectorized
    transcendental functions on a freshly allocated 2 MB array (page faults
    included), and passes over a 2 MB array.

    Each call runs the mix twice and times the second run, so what the
    previous job left in the caches does not count. The probe's own memory
    stays under 8 MB, below the program's steady state.
    """

    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.big = np.linspace(0.0, 1.0, 1 << 18)
        self.out = np.empty(1 << 18)

    def __call__(self) -> float:
        self._mix()
        t0 = time.perf_counter()
        self._mix()
        return time.perf_counter() - t0

    def _mix(self) -> float:
        np = self.np
        x = np.linspace(-1.0, 1.0, 3)
        acc = 0.0
        for i in range(1000):
            y = np.exp(x - x.max())
            acc += float(y.sum()) + math.sqrt(i)
            x = x[::-1].copy()
        fresh = np.ones(1 << 18)
        for _ in range(4):
            np.log1p(self.big, out=fresh)
            acc += float(fresh.sum())
        for _ in range(6):
            np.multiply(self.big, 1.0001, out=self.out)
            acc += float(self.out.sum())
        return acc


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import_times = {}
    tracer = None
    if args.mode == "trace":
        import numpy  # noqa: F401  (numpy is timed by neither figure)
        t0 = time.perf_counter()
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401
        import_times["scipy"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        import welfarechoice.cli  # noqa: F401
        import_times["welfarechoice"] = time.perf_counter() - t0
        from spans import Tracer
        tracer = Tracer()
        tracer.instrument_package()
    else:
        import welfarechoice.cli  # noqa: F401

    import workloads
    inst = workloads.Instrument() if tracer is None else tracer
    if tracer is not None:
        tracer.mark("setup")

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.workdir, inst)
        workload.setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0

        runner = Runner()
        if tracer is not None:
            tracer.mark("warmup")
        runner.run(workload.job(job_rng(args.seed, args.workload, 0)), count=False)
        if tracer is not None:
            tracer.mark("jobs")

        probe = SpeedProbe()
        latencies, probes = [], [probe()]
        for k in range(1, args.jobs + 1):
            ops = workload.job(job_rng(args.seed, args.workload, k))
            latencies.append(runner.run(ops))
            probes.append(probe())
        # each job is scaled by the mean of the probes just before and after it
        scaled = [t * 2.0 * REFERENCE_PROBE_S / (a + b)
                  for t, a, b in zip(latencies, probes, probes[1:])]
        if tracer is not None:
            tracer.mark("after")
        runner.run(workload.after_jobs(), count=False)

        result = {
            "correct": runner.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "wall_s": math.fsum(scaled),
            "job_p50_ms": 1e3 * percentile(scaled, 50),
            "job_p90_ms": 1e3 * percentile(scaled, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "speed_factor": REFERENCE_PROBE_S / statistics.median(probes),
            "jobs": len(latencies),
            "raw_wall_s": math.fsum(latencies),
            "raw_job_ms": [round(1e3 * v, 3) for v in latencies],
            "probe_ms": [round(1e3 * v, 3) for v in probes],
        }
        if tracer is not None:
            from layers import layer_metrics, self_ms_per_job
            result["layers"] = layer_metrics(tracer, args.workload, len(latencies),
                                             import_times, workload)
            if args.trace_out:
                tracer.write(args.trace_out, {
                    **result, "self_ms_per_job": self_ms_per_job(tracer, len(latencies))})
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
