"""Benchmark for welfarechoice: one command per workload and seed.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Runs the workload's fixed list of jobs in a fresh worker process (one
thread, closed loop), checks every output, and prints as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs the first
fifth of the job list untraced and then traced, and reports the per-layer
metrics and the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("closed-form", "ram", "monte-carlo")
# Nominal duration of one job on the reference machine; every workload's
# mix is sized to it, so a run of S seconds holds S / JOB_SECONDS jobs.
JOB_SECONDS = 0.3
# setup_s is the median of this many fresh starts, one of them the worker
# that then runs the jobs: a single start spreads by a quarter.
SETUP_STARTS = 3
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB"}
PINNED_ENV = {
    "WELFARECHOICE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """The caller's environment without Python or thread settings, plus ours."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k not in PINNED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(mode: str, workload: str, seed: int, jobs: int,
               trace_out: Path | None = None) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds from start to `ready`, its result)."""
    workdir = OUT / f"work-{os.getpid()}-{mode}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--mode", mode,
           "--workdir", str(workdir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {code}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, jobs: int) -> tuple[dict, dict]:
    starts = [run_worker("setup", workload, seed, jobs)[0]
              for _ in range(SETUP_STARTS - 1)]
    setup_s, res = run_worker("run", workload, seed, jobs)
    starts.append(setup_s)
    res["setup_starts_s"] = starts
    # scaled, like the job times, by the host speed the run's probes measured
    res["setup_s"] = statistics.median(starts) * res["speed_factor"]
    return {
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: metric(res[k], u) for k, u in END_TO_END_UNITS.items()},
    }, res


def per_layer(workload: str, seed: int, jobs: int) -> tuple[dict, dict]:
    from layers import UNITS
    # a fifth of the job list, run untraced and then traced: enough for
    # per-job layer figures, and it keeps the span file to a few MB
    part = max(1, jobs // 5)
    _, plain = run_worker("run", workload, seed, part)
    _, traced = run_worker("trace", workload, seed, part,
                           OUT / f"trace-{workload}-seed{seed}.json.gz")
    layers = traced.pop("layers")
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.traced_wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {k: metric(layers[k], u) for k, u in UNITS.items()},
    }, {"untraced": plain, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "welfarechoice" / "__init__.py").is_file():
        print(f"run.py: no welfarechoice sources under {ROOT / 'src'}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    jobs = max(1, round(args.seconds / JOB_SECONDS))
    try:
        if args.trace:
            summary, detail = per_layer(args.workload, args.seed, jobs)
        else:
            summary, detail = end_to_end(args.workload, args.seed, jobs)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "jobs": jobs, **summary,
                                  "detail": detail}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its worker: SystemExit runs the finally
    # clause in run_worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
