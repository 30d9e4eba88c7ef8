"""Layer reference figures: one timing per layer, printed as a Markdown table.

    python3 perfbench/figures.py

Measures, at one thread unless stated, the per-call costs the benchmark's
workloads are built from: closed-form evaluation looped and batched, one
RAM solve per regularizer family, the conjugate and the choice inversion,
Monte Carlo draws at 1 and 2 threads, and the start-up of a fresh process.
Each figure is the median of several repetitions. These are reference
numbers for reading the workloads, not benchmark metrics.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median_time(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def fresh_process(code: list[str], repeat: int = 5) -> float:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return median_time(lambda: subprocess.run([sys.executable, *code], env=env, check=True,
                                              stdout=subprocess.DEVNULL), repeat)


def main() -> int:
    os.environ["WELFARECHOICE_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import welfarechoice as wc
    from welfarechoice import rum

    rng = np.random.default_rng(0)
    rows = []
    mnl = wc.mnl_welfare(1.0, 3)
    points = rng.uniform(-3, 3, (2000, 3))

    def looped():
        for mu in points:
            mnl.value(mu)
            mnl.gradient(mu)

    batch = rng.uniform(-3, 3, (100_000, 3))
    rows.append(("`mnl` n=3, value+grad looped", 1e6 * median_time(looped, 5) / len(points),
                 "µs/point"))
    rows.append(("`mnl` n=3, value+grad batched (1e5 points)",
                 1e6 * median_time(lambda: (mnl.value(batch), mnl.gradient(batch)), 5)
                 / len(batch), "µs/point"))

    coupled = 9.0 * np.eye(3) + 0.9 * (np.ones((3, 3)) - np.eye(3))
    regs = {
        "entropy": wc.entropy_regularizer(1.0, 3),
        "quadratic": wc.quadratic_regularizer([[3, 2, 0], [2, 3, 2], [0, 2, 3]]),
        "log-barrier": wc.log_barrier_regularizer(3),
        "MDM (logistic)": wc.mdm_regularizer([wc.logistic_marginal(1.0)] * 3),
        "MMM": wc.mmm_regularizer([2.0, 2.5, 2.0]),
        "CMM": wc.cmm_regularizer(coupled),
    }
    mus = rng.uniform(-2, 2, (40, 3))
    for name, reg in regs.items():
        per = median_time(lambda: [wc.solve_ram(reg, mu) for mu in mus], 3) / len(mus)
        rows.append((f"`solve_ram` {name}", 1e3 * per, "ms/solve"))

    x = np.array([0.5, 0.3, 0.2])
    rows.append(("`conjugate_V(mnl)`", 1e3 * median_time(lambda: wc.conjugate_V(mnl, x), 9),
                 "ms"))
    entropy_model = wc.ram_welfare(regs["entropy"])
    rows.append(("`invert_choice(ram_entropy)`",
                 1e3 * median_time(lambda: wc.invert_choice(entropy_model, x), 9), "ms"))

    sampler = wc.gumbel_sampler(1.0, 3)
    for threads in ("1", "2"):
        os.environ[rum.THREADS_ENV] = threads
        t = median_time(lambda: wc.mc_choice_probs(sampler, [0.5, 0.0, -0.5], 10**6, 1), 5)
        rows.append((f"MC `mc_choice_probs`, 1e6 draws, n=3, {threads} thread(s)", 1e3 * t,
                     "ms"))
    os.environ[rum.THREADS_ENV] = "1"

    rows.append(("`import welfarechoice` (fresh process)",
                 fresh_process(["-c", "import welfarechoice"]), "s"))
    rows.append(("`welfarechoice --version` (fresh process)",
                 fresh_process(["-m", "welfarechoice.cli", "--version"]), "s"))

    print("| layer | measured | unit |")
    print("|---|---|---|")
    for name, value, unit in rows:
        print(f"| {name} | {value:.3g} | {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
