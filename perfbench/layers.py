"""Per-layer metrics derived from the spans of a traced run.

Layer names are the package's module names. Unless the unit says
otherwise, a figure is a total over the timed jobs divided by the number
of jobs; `ms` is inclusive time. A layer that a workload does not
exercise reports 0.
"""

from __future__ import annotations

import os
import time

RAM_FAMILIES = ("entropy", "quadratic", "logbarrier", "mdm", "mmm", "cmm")
INVERTED_MODELS = ("mnl", "brand", "ram_quadratic", "ram_entropy")
BINARY_MODELS = {"mnl": "mnl2", "ram_entropy": "ram_entropy2"}
SPEC_KINDS = ("mnl", "nested_logit", "gev_custom", "ram_entropy", "ram_quadratic",
              "ram_logbarrier", "ram_mdm", "ram_mmm", "ram_cmm",
              "transform_scale", "transform_mix", "transform_cross")
CLI_COMMANDS = ("eval", "figure", "convert", "rum")
TRANSFORM_LABELS = ("scale", "mix", "cross", "mix_duplicate")
MC_FAMILIES = ("gumbel(eta=1)", "normal(sd=1)", "logistic(scale=1)", "degenerate")

# name -> unit, in the order they are reported.
UNITS: dict[str, str] = {
    "core.finite_diff_gradient.calls": "calls/job",
    "core.finite_diff_gradient.ms": "ms/job",
    "core.mixed_partial.calls": "calls/job",
    "core.mixed_partial.ms": "ms/job",
    "welfare.value.calls": "calls/job",
    "welfare.value.points": "points/job",
    "welfare.gradient.calls": "calls/job",
    "welfare.gradient.points": "points/job",
    "welfare.check_axioms.ms": "ms/job",
    "welfare.check_superlinear.ms": "ms/job",
    "transforms.value.ms": "ms/job",
    "ram.solve.calls": "calls/job",
    "ram.solves_per_point": "solves/point",
    **{f"ram.solve.ms.{f}": "ms/job" for f in RAM_FAMILIES},
    **{f"ram.iterations.{f}": "iters/solve" for f in RAM_FAMILIES},
    "ram.regularizer_gradient.calls": "calls/job",
    "duality.conjugate_V.ms": "ms/job",
    **{f"duality.invert_choice.ms.{m}": "ms/job" for m in INVERTED_MODELS},
    "duality.invert_choice.gradient_calls": "calls/job",
    "duality.anchor_family.ms": "ms/job",
    "rum.draws_per_s": "1/s",
    "rum.draws_per_s.ref_1thread": "1/s",
    "rum.draws_per_s.ref_2threads": "1/s",
    "rum.mc_welfare.ms": "ms/job",
    "rum.mc_choice_probs.ms": "ms/job",
    "rum.binary.sample_xi.ms": "ms/job",
    **{f"rum.binary.xi_cdf_calls_per_sample.{m}": "calls/sample" for m in BINARY_MODELS},
    "rum.sign_test.ms": "ms/job",
    "rum.panel_mb": "MB_computed",
    "substitution.scan_line.ms": "ms/job",
    "substitution.classify_pair.calls": "calls/job",
    "substitution.substitutable_model_check.ms": "ms/job",
    **{f"modelspec.build_model.ms.{k}": "ms/setup" for k in SPEC_KINDS},
    "cli.import.scipy_s": "s",
    "cli.import.welfarechoice_s": "s",
    **{f"cli.main.ms.{c}": "ms/job" for c in CLI_COMMANDS},
    "trace.spans": "spans/job",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

REFERENCE_DRAWS = 1 << 20


def draws_per_s(threads: int) -> float:
    """Gumbel n = 3 choice-probability draws per second at a thread count
    (best of two runs of 2^20 draws)."""
    from welfarechoice import rum
    sampler = rum.gumbel_sampler(1.0, 3)
    best = float("inf")
    os.environ[rum.THREADS_ENV] = str(threads)
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            rum.mc_choice_probs(sampler, [0.5, 0.0, -0.5], REFERENCE_DRAWS, 1)
            best = min(best, time.perf_counter() - t0)
    finally:
        os.environ[rum.THREADS_ENV] = "1"
    return REFERENCE_DRAWS / best


def layer_metrics(tracer, workload_name: str, jobs: int, import_times: dict,
                  workload) -> dict[str, float]:
    first, last = tracer.marks["jobs"], tracer.marks["after"]
    stats = tracer.analyse(first, last)
    setup = tracer.analyse(tracer.marks["setup"], tracer.marks["warmup"])

    def get(key, field, source=stats):
        return source.get(key, {}).get(field, 0.0)

    def per_job(value):
        return value / jobs

    out: dict[str, float] = {}
    for name in ("core.finite_diff_gradient", "core.mixed_partial"):
        out[f"{name}.calls"] = per_job(get(name, "calls"))
        out[f"{name}.ms"] = per_job(get(name, "ms"))
    for kind in ("value", "gradient"):
        out[f"welfare.{kind}.calls"] = per_job(get(f"welfare.{kind}", "calls"))
        out[f"welfare.{kind}.points"] = per_job(get(f"welfare.{kind}", "extra"))
    out["welfare.check_axioms.ms"] = per_job(get("welfare.check_axioms", "ms"))
    out["welfare.check_superlinear.ms"] = per_job(get("welfare.check_superlinear", "ms"))
    out["transforms.value.ms"] = per_job(sum(get(f"welfare.value[{t}]", "ms")
                                             for t in TRANSFORM_LABELS))

    out["ram.solve.calls"] = per_job(get("ram.solve_ram", "calls"))
    points = get("bench.ram.value_and_gradient", "calls")
    solves = tracer.calls_under("ram.solve_ram", "bench.ram.value_and_gradient",
                                first, last)
    out["ram.solves_per_point"] = solves / points if points else 0.0
    for f in RAM_FAMILIES:
        key = f"ram.solve_ram[{f}]"
        out[f"ram.solve.ms.{f}"] = per_job(get(key, "ms"))
        calls = get(key, "calls")
        out[f"ram.iterations.{f}"] = get(key, "extra") / calls if calls else 0.0
    counters = tracer.counters_at["after"] - tracer.counters_at["jobs"]
    out["ram.regularizer_gradient.calls"] = per_job(counters["ram.regularizer_gradient.calls"])

    out["duality.conjugate_V.ms"] = per_job(get("duality.conjugate_V", "ms"))
    for m in INVERTED_MODELS:
        out[f"duality.invert_choice.ms.{m}"] = per_job(get(f"duality.invert_choice[{m}]", "ms"))
    out["duality.invert_choice.gradient_calls"] = per_job(tracer.calls_under(
        "welfare.gradient", "duality.invert_choice", first, last))
    out["duality.anchor_family.ms"] = per_job(get("duality.anchor_family", "ms"))

    draws = sum(get(f"rum.{c}[{f}]", "extra") for c in ("mc_choice_probs", "mc_welfare")
                for f in MC_FAMILIES)
    busy_ms = sum(get(f"rum.{c}[{f}]", "ms") for c in ("mc_choice_probs", "mc_welfare")
                  for f in MC_FAMILIES)
    out["rum.draws_per_s"] = draws / (busy_ms / 1e3) if busy_ms else 0.0
    monte_carlo = workload_name == "monte-carlo"
    out["rum.draws_per_s.ref_1thread"] = draws_per_s(1) if monte_carlo else 0.0
    out["rum.draws_per_s.ref_2threads"] = draws_per_s(2) if monte_carlo else 0.0
    out["rum.mc_welfare.ms"] = per_job(get("rum.mc_welfare", "ms"))
    out["rum.mc_choice_probs.ms"] = per_job(get("rum.mc_choice_probs", "ms"))
    out["rum.binary.sample_xi.ms"] = per_job(get("rum.binary.sample_xi", "ms"))
    for m, label in BINARY_MODELS.items():
        samples = get(f"rum.binary.sample_xi[{label}]", "extra")
        calls = tracer.calls_under("welfare.gradient", "rum.binary.sample_xi",
                                   first, last, child_tag=label)
        out[f"rum.binary.xi_cdf_calls_per_sample.{m}"] = calls / samples if samples else 0.0
    out["rum.sign_test.ms"] = per_job(get("rum.rum_sign_test", "ms"))
    panel = getattr(workload, "panel_shape", None)
    out["rum.panel_mb"] = panel[0] * panel[1] * 8 / 1e6 if panel else 0.0

    out["substitution.scan_line.ms"] = per_job(get("substitution.scan_line", "ms"))
    out["substitution.classify_pair.calls"] = per_job(get("substitution.classify_pair", "calls"))
    out["substitution.substitutable_model_check.ms"] = per_job(
        get("substitution.substitutable_model_check", "ms"))

    for k in SPEC_KINDS:
        out[f"modelspec.build_model.ms.{k}"] = get(f"modelspec.build_model[{k}]", "ms", setup)
    out["cli.import.scipy_s"] = import_times.get("scipy", 0.0)
    out["cli.import.welfarechoice_s"] = import_times.get("welfarechoice", 0.0)
    for c in CLI_COMMANDS:
        out[f"cli.main.ms.{c}"] = per_job(get(f"cli.main[{c}]", "ms"))
    out["trace.spans"] = per_job(last - first)
    return out


def self_ms_per_job(tracer, jobs: int) -> dict[str, float]:
    """Self time per job of each span name over the timed jobs, largest first."""
    stats = tracer.analyse(tracer.marks["jobs"], tracer.marks["after"])
    return {k: v["self_ms"] / jobs
            for k, v in sorted(stats.items(), key=lambda kv: -kv[1]["self_ms"])
            if "[" not in k}
