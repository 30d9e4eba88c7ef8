"""The three benchmark workloads.

A workload builds its models once (`setup`) and then produces jobs. A job
is one full round of the workload's mix, a list of operations, on inputs
drawn from the job's own generator, so every job does the same kind and
amount of work. Each operation pairs a call into the program, which is
timed, with a check of its output against a reference, which is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from welfarechoice import (cli, core, duality, modelspec, ram, rum,
                           substitution, welfare)

import checks as ck
import reference as ref


@dataclass(frozen=True)
class Op:
    """One operation: `call()` runs program code, `check(out)` verifies it.

    `fault` marks an operation that reproduces a known defect of the
    program; it is expected to fail and counts in `failed`, not against
    correctness.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fault: bool = False


class Instrument:
    """Identity hooks; the traced run substitutes span-recording ones."""

    def model(self, model, label):
        return model

    def regularizer(self, reg):
        return reg

    def spanned(self, name, fn):
        return fn()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fmt_vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def lst(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def check_gradient(q, fd, w, q_ref, w_ref, what, fd_tol=1e-5, ref_tol=1e-9):
    """q on the simplex, q = FD grad w (criterion-2 tolerance), and both
    q and w equal to the closed-form reference."""
    ck.on_simplex(q, f"{what} q")
    ck.rel_close(q, fd, fd_tol, f"{what} q vs FD grad w")
    if q_ref is not None:
        ck.close(q, q_ref, ref_tol, f"{what} q vs reference")
    if w_ref is not None:
        ck.close(w, w_ref, ref_tol * max(1.0, abs(w_ref)), f"{what} w vs reference")


BRAND_W = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
COUPLING = [[3.0, 2.0, 0.0], [2.0, 3.0, 2.0], [0.0, 2.0, 3.0]]


class Workload:
    name = ""

    def __init__(self, workdir: str, inst: Instrument):
        self.workdir = workdir
        self.inst = inst

    def build(self, spec: dict, label: str):
        bundle = modelspec.build_model(spec)
        return self.inst.model(bundle.model, label)

    def write_spec(self, name: str, spec: dict) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def after_jobs(self) -> list[Op]:
        """Operations checked once after the timed jobs (not timed)."""
        return []


# --------------------------------------------------------------------------
# closed-form
# --------------------------------------------------------------------------

MNL2 = {"kind": "mnl", "n": 2, "eta": 1.0}
MNL3 = {"kind": "mnl", "n": 3, "eta": 1.0}
CLOSED_FORM_SPECS = {
    "mnl": MNL3,
    "nested_logit": {"kind": "nested_logit", "n": 4, "nests": [[1, 2], [3, 4]],
                     "lambdas": [0.5, 0.8]},
    "gev": {"kind": "gev_custom", "eta": 1.0, "exponents": BRAND_W},
    "scale": {"kind": "transform_scale", "eta": 2.0, "inner": MNL3},
    "mix": {"kind": "transform_mix", "n": 3, "components": [
        {"weight": 0.5, "indices": [1, 2], "inner": MNL2},
        {"weight": 0.5, "indices": [2, 3], "inner": MNL2}]},
    "cross": {"kind": "transform_cross", "matrix": BRAND_W,
              "inner": {"kind": "mnl", "n": 4, "eta": 1.0}},
}
# A mixture whose first component repeats alternative 1.
MIX_DUPLICATE = {"kind": "transform_mix", "n": 2, "components": [
    {"weight": 0.5, "indices": [1, 1], "inner": MNL2},
    {"weight": 0.5, "indices": [1, 2], "inner": MNL2}]}


def nested_reference(mu):
    blocks, lams = [[0, 1], [2, 3]], [0.5, 0.8]
    inner = [ref.logsumexp([mu[i] / lam for i in b]) for b, lam in zip(blocks, lams)]
    w = ref.logsumexp([lam * s for lam, s in zip(lams, inner)])
    q = [0.0] * 4
    for b, lam, s in zip(blocks, lams, inner):
        for i in b:
            q[i] = math.exp(mu[i] / lam + (lam - 1.0) * s - w)
    return w, q


def mix_reference(mu):
    a, b = mu[0:2], mu[1:3]
    qa, qb = ref.softmax(a), ref.softmax(b)
    w = 0.5 * ref.logsumexp(a) + 0.5 * ref.logsumexp(b)
    return w, [0.5 * qa[0], 0.5 * qa[1] + 0.5 * qb[0], 0.5 * qb[1]]


CLOSED_FORM_REFERENCES = {
    "mnl": lambda mu: (ref.logsumexp(mu), ref.softmax(mu)),
    "nested_logit": nested_reference,
    "gev": lambda mu: (ref.log_sum_welfare(BRAND_W, mu), ref.log_sum_probs(BRAND_W, mu)),
    "brand": lambda mu: (ref.log_sum_welfare(BRAND_W, mu), ref.log_sum_probs(BRAND_W, mu)),
    "scale": lambda mu: (2.0 * ref.logsumexp([m / 2.0 for m in mu]),
                         ref.softmax([m / 2.0 for m in mu])),
    "mix": mix_reference,
    "cross": lambda mu: (ref.log_sum_welfare(BRAND_W, mu), ref.log_sum_probs(BRAND_W, mu)),
}
SUPERLINEAR = ("mnl", "nested_logit", "brand", "scale", "cross")


def brand_complementary_point(rng) -> np.ndarray:
    """A point where the brand model's (1, 2) cross partial is clearly
    positive: mu_1 and mu_2 within 1/2 of each other and mu_3 in [3, 5]."""
    return np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                     rng.uniform(3.0, 5.0)])


class ClosedForm(Workload):
    name = "closed-form"
    points_per_model = 8
    axiom_samples = 150
    sign_points = 10
    anchor_probes = 8

    def setup(self) -> None:
        self.models = {k: self.build(s, k) for k, s in CLOSED_FORM_SPECS.items()}
        self.models["brand"] = self.inst.model(modelspec.demo_brand_model().model,
                                               "brand")
        self.mix_duplicate = self.build(MIX_DUPLICATE, "mix_duplicate")
        self.double_shift = self.inst.model(welfare.WelfareModel(
            n=2, value=lambda mu: float(np.max(mu) + mu[0]),
            gradient=lambda mu: np.array([1.0, 0.0]), name="double_shift"),
            "double_shift")
        self.mnl_path = self.write_spec("mnl3", MNL3)

    def job(self, rng):
        ops: list[Op] = []
        models = self.models

        for label, model in models.items():
            for _ in range(self.points_per_model):
                mu = rng.uniform(-5.0, 5.0, model.n)

                def call(model=model, mu=mu):
                    w = model.value(mu)
                    q = model.gradient(mu)
                    return w, q, core.finite_diff_gradient(model.value, mu)

                def check(out, label=label, mu=mu):
                    w, q, fd = out
                    w_ref, q_ref = CLOSED_FORM_REFERENCES[label](lst(mu))
                    check_gradient(q, fd, w, q_ref, w_ref, label)

                ops.append(Op(f"gradient[{label}]", call, check))

        for label, model in models.items():
            seed = int(rng.integers(2**31))
            ops.append(Op(
                f"check_axioms[{label}]",
                lambda model=model, seed=seed: welfare.check_axioms(
                    model, samples=self.axiom_samples, box=10.0, seed=seed),
                lambda rep, label=label: ck.holds(rep.all_passed,
                                                  f"{label} fails an axiom")))
        seed = int(rng.integers(2**31))
        ops.append(Op(
            "check_axioms[double_shift]",
            lambda: welfare.check_axioms(self.double_shift,
                                         samples=self.axiom_samples, seed=seed),
            lambda rep: ck.holds(not rep.translation_invariant.passed
                                 and rep.translation_invariant.witness is not None,
                                 "negative control passes translation invariance")))

        for label in SUPERLINEAR:
            model = models[label]
            seed = int(rng.integers(2**31))

            def call(model=model, seed=seed):
                bounds, estimated = welfare.model_bounds(model)
                return estimated, welfare.check_superlinear(
                    model, bounds, samples=self.axiom_samples, seed=seed)

            ops.append(Op(f"check_superlinear[{label}]", call,
                          lambda out, label=label: ck.holds(
                              not out[0] and out[1].passed,
                              f"{label}: superlinear bound fails")))

        mnl_points = [rng.uniform(-3.0, 3.0, 3) for _ in range(self.sign_points)]
        brand_points = [brand_complementary_point(rng) for _ in range(self.sign_points)]
        ops.append(Op("rum_sign_test[mnl]",
                      lambda: rum.rum_sign_test(models["mnl"], 3, mnl_points),
                      lambda rep: ck.holds(rep.passed, "mnl fails a sign test")))
        ops.append(Op("rum_sign_test[brand]",
                      lambda: rum.rum_sign_test(models["brand"], 3, brand_points),
                      lambda rep: ck.holds(not rep.verdict(2).passed,
                                           "brand passes the order-2 sign test")))

        for label, point in (("mnl", mnl_points[0]), ("brand", brand_points[0])):
            W = BRAND_W if label == "brand" else [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]
            expected = (substitution.COMPLEMENTARY if label == "brand"
                        else substitution.SUBSTITUTABLE)

            def check(c, W=W, point=point, expected=expected, label=label):
                exact = ref.log_sum_cross_partial(W, lst(point), 0, 1)
                ck.equal(c.label, expected, f"classify_pair[{label}] label")
                ck.close(c.estimate, exact, 1e-3, f"classify_pair[{label}] estimate")

            ops.append(Op(f"classify_pair[{label}]",
                          lambda label=label, point=point: substitution.classify_pair(
                              models[label], point, 0, 1), check))

        for _ in range(4):
            x = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            ops.append(Op("conjugate_V[mnl]",
                          lambda x=x: duality.conjugate_V(models["mnl"], x),
                          lambda v, x=x: ck.close(v, ref.entropy_neg(lst(x)), 1e-4,
                                                  "conjugate_V(mnl) vs sum x log x")))

        for label, probs in (("mnl", ref.softmax),
                             ("brand", lambda mu: ref.log_sum_probs(BRAND_W, mu))):
            x = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            ops.append(Op(f"invert_choice[{label}]",
                          lambda label=label, x=x: duality.invert_choice(models[label], x),
                          lambda mu, x=x, probs=probs, label=label: ck.close(
                              probs(lst(mu)), lst(x), 1e-6,
                              f"invert_choice[{label}] residual")))

        for label, wref in (("mnl", ref.logsumexp),
                            ("brand", lambda mu: ref.log_sum_welfare(BRAND_W, mu))):
            anchors = [rng.uniform(-3.0, 3.0, 3) for _ in range(2)]
            probes = [rng.uniform(-4.0, 4.0, 3) for _ in range(self.anchor_probes)]

            def call(label=label, anchors=anchors, probes=probes):
                family = duality.anchor_family(models[label], anchors)
                at_anchor = [d.expected_max(d.z) for d in family]
                at_probe = [[d.expected_max(p) for p in probes] for d in family]
                return at_anchor, at_probe

            def check(out, label=label, anchors=anchors, probes=probes, wref=wref):
                at_anchor, at_probe = out
                ck.close(at_anchor, [wref(lst(z)) for z in anchors], 1e-9,
                         f"anchor_family[{label}] at anchors")
                bound = [wref(lst(p)) for p in probes]
                for row in at_probe:
                    ck.holds(all(e <= b + 1e-9 for e, b in zip(row, bound)),
                             f"anchor_family[{label}] exceeds w at a probe")

            ops.append(Op(f"anchor_family[{label}]", call, check))

        eval_points = [rng.uniform(-5.0, 5.0, 3) for _ in range(4)]
        argv = ["eval", "--spec", self.mnl_path]
        for mu in eval_points:
            argv.append("--mu=" + fmt_vec(mu))

        def check_eval(out):
            code, text, _ = out
            ck.equal(code, 0, "eval exit code")
            rows = ck.csv_table(text, ["mu_1", "mu_2", "mu_3", "w", "q_1", "q_2", "q_3"])
            ck.equal(len(rows), len(eval_points), "eval rows")
            for row, mu in zip(rows, eval_points):
                cells = [float(c) for c in row]
                m = lst(mu)
                ck.rel_close(cells[:3], m, 1e-9, "eval mu")
                ck.rel_close(cells[3:4], [ref.logsumexp(m)], 1e-9, "eval w")
                ck.close(cells[4:], ref.softmax(m), 1e-9, "eval q")

        ops.append(Op("cli.eval", lambda: run_cli(argv), check_eval))

        def check_figure3(out):
            code, text, _ = out
            ck.equal(code, 0, "figure 3 exit code")
            rows = ck.csv_table(text, ["mu1", "q2", "classification"])
            ck.equal(len(rows), 1501, "figure 3 rows")
            for k, (mu1, q2, label) in enumerate(rows):
                q2_ref, slope = ref.brand_slice(float(mu1), 0.0, 3.0)
                ck.rel_close([float(q2)], [q2_ref], 1e-9, f"figure 3 q2 at mu1={mu1}")
                ck.close(float(mu1), -10.0 + 0.01 * k, 1e-9, "figure 3 mu1 grid")
                if 0 < k < 1500 and abs(slope) > 1e-4:
                    expected = (substitution.COMPLEMENTARY if slope > 0
                                else substitution.SUBSTITUTABLE)
                    ck.equal(label, expected, f"figure 3 label at mu1={mu1}")

        ops.append(Op("cli.figure3", lambda: run_cli(["figure", "--example", "3"]),
                      check_figure3))

        # Known fault: a mix component with a repeated index loses the
        # duplicate's share of the gradient.
        dup_mu = np.array([0.5, 0.0])

        def call_dup():
            model = self.mix_duplicate
            return model.gradient(dup_mu), core.finite_diff_gradient(model.value, dup_mu)

        ops.append(Op("gradient[mix_duplicate_index]", call_dup,
                      lambda out: ck.rel_close(out[0], out[1], 1e-5,
                                               "mix with repeated index: q vs FD grad w"),
                      fault=True))
        # Known fault: a non-finite utility must be refused with exit 2.
        ops.append(Op("cli.eval[nan]",
                      lambda: run_cli(["eval", "--spec", self.mnl_path,
                                       "--mu", "nan,0,0"]),
                      lambda out: ck.equal(out[0], 2, "eval --mu nan,0,0 exit code"),
                      fault=True))
        return ops


# --------------------------------------------------------------------------
# ram
# --------------------------------------------------------------------------

MDM_SCALES = [1.0, 0.7, 1.5]
MMM_SIGMA = [2.0, 2.5, 2.0]
CMM_COV = (9.0 * np.eye(3) + 0.9 * (np.ones((3, 3)) - np.eye(3))).tolist()
DEMO_QUADRATIC = [[0.5 * v for v in row] for row in COUPLING]

RAM_SPECS = {
    "entropy": {"kind": "ram_entropy", "n": 3, "eta": 1.0},
    "quadratic": {"kind": "ram_quadratic", "matrix": COUPLING},
    "logbarrier": {"kind": "ram_logbarrier", "n": 3},
    "mdm": {"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": s}
                                             for s in MDM_SCALES]},
    "mmm": {"kind": "ram_mmm", "sigma": MMM_SIGMA},
    "cmm": {"kind": "ram_cmm", "covariance": CMM_COV},
}


def ram_reference(family: str, mu: list[float]):
    """(x, w) from the reference solvers, or None where none exists (CMM)."""
    if family == "entropy":
        return ref.softmax(mu), ref.logsumexp(mu)
    if family == "quadratic":
        x = ref.quadratic_solution(COUPLING, mu)
        return x, ref.ram_welfare_value(mu, x, ref.quadratic_value(COUPLING, x))
    if family == "logbarrier":
        x = ref.log_barrier_solution(mu)
        return x, ref.ram_welfare_value(mu, x, ref.log_barrier_value(x))
    if family == "mdm":
        x = ref.mdm_logistic_solution(mu, MDM_SCALES)
        return x, ref.ram_welfare_value(mu, x, ref.mdm_logistic_value(x, MDM_SCALES))
    if family == "mmm":
        x = ref.mmm_solution(mu, MMM_SIGMA)
        return x, ref.ram_welfare_value(mu, x, ref.mmm_value(x, MMM_SIGMA))
    return None


class Ram(Workload):
    name = "ram"
    axiom_samples = 8
    substitution_samples = 6
    figure2_rows_checked = 12

    def setup(self) -> None:
        self.regs, self.models = {}, {}
        for family, spec in RAM_SPECS.items():
            bundle = modelspec.build_model(spec)
            reg = self.inst.regularizer(bundle.regularizer)
            self.regs[family] = reg
            self.models[family] = self.inst.model(ram.ram_welfare(reg), f"ram_{family}")
        demo = self.inst.regularizer(modelspec.demo_quadratic_model().regularizer)
        self.demo = self.inst.model(ram.ram_welfare(demo), "ram_demo_quadratic")
        self.mmm_path = self.write_spec("mmm3", RAM_SPECS["mmm"])

    def job(self, rng):
        ops: list[Op] = []
        for family, reg in self.regs.items():
            box = 1.0 if family == "cmm" else 2.0
            mu = rng.uniform(-box, box, 3)
            fd_tol = 1e-3 if family == "cmm" else 1e-5

            def check_solve(res, family=family, mu=mu):
                ck.holds(res.converged, f"solve_ram[{family}] did not converge")
                ck.on_simplex(res.x_star, f"solve_ram[{family}] x")
                expected = ram_reference(family, lst(mu))
                if expected is not None:
                    ck.close(res.x_star, expected[0], 1e-6, f"solve_ram[{family}] x")
                    ck.close(res.w_value, expected[1], 1e-6, f"solve_ram[{family}] w")

            ops.append(Op(f"solve_ram[{family}]",
                          lambda reg=reg, mu=mu: ram.solve_ram(reg, mu), check_solve))

            def call_welfare(family=family, mu=mu):
                model = self.models[family]
                w, q = self.inst.spanned("bench.ram.value_and_gradient",
                                         lambda: (model.value(mu), model.gradient(mu)))
                return w, q, core.finite_diff_gradient(model.value, mu)

            def check_welfare(out, family=family, mu=mu, fd_tol=fd_tol):
                w, q, fd = out
                expected = ram_reference(family, lst(mu))
                q_ref, w_ref = expected if expected is not None else (None, None)
                check_gradient(q, fd, w, q_ref, w_ref, f"ram_welfare[{family}]",
                               fd_tol=fd_tol, ref_tol=1e-6)

            ops.append(Op(f"ram_welfare[{family}]", call_welfare, check_welfare))

        for family, probs in (("quadratic", lambda mu: ref.quadratic_solution(COUPLING, mu)),
                              ("entropy", ref.softmax)):
            x = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            ops.append(Op(f"invert_choice[{family}]",
                          lambda family=family, x=x: duality.invert_choice(
                              self.models[family], x),
                          lambda mu, x=x, probs=probs, family=family: ck.close(
                              probs(lst(mu)), lst(x), 1e-6,
                              f"invert_choice[{family}] residual")))

        seed = int(rng.integers(2**31))
        ops.append(Op("check_axioms[ram_quadratic]",
                      lambda: welfare.check_axioms(self.models["quadratic"],
                                                   samples=self.axiom_samples, seed=seed),
                      lambda rep: ck.holds(rep.all_passed, "ram_quadratic fails an axiom")))

        seed = int(rng.integers(2**31))
        expected = ("substitutable-consistent"
                    if ref.quadratic_criterion_passes(DEMO_QUADRATIC) else "violation")
        ops.append(Op("substitutable_model_check[demo_quadratic]",
                      lambda: substitution.substitutable_model_check(
                          self.demo, samples=self.substitution_samples, seed=seed,
                          span_probes=2),
                      lambda rep: ck.equal(rep.verdict, expected,
                                           "substitutability verdict vs matrix criterion")))

        convert_points = [rng.uniform(-2.0, 2.0, 3) for _ in range(2)]
        argv = ["convert", "--spec", self.mmm_path, "--direction", "v-to-w"]
        for mu in convert_points:
            argv.append("--mu=" + fmt_vec(mu))

        def check_convert(out):
            code, text, _ = out
            ck.equal(code, 0, "convert exit code")
            rows = ck.csv_table(text, ["mu_1", "mu_2", "mu_3", "w", "q_1", "q_2", "q_3"])
            ck.equal(len(rows), len(convert_points), "convert rows")
            for row, mu in zip(rows, convert_points):
                cells = [float(c) for c in row]
                ck.rel_close(cells[:3], lst(mu), 1e-9, "convert mu")
                x, w = ram_reference("mmm", lst(mu))
                ck.close(cells[4:], x, 1e-6, "convert v-to-w q")
                ck.close(cells[3], w, 1e-6, "convert v-to-w w")

        ops.append(Op("cli.convert[v-to-w]", lambda: run_cli(argv), check_convert))

        rows_checked = sorted(int(k) for k in rng.choice(401, self.figure2_rows_checked,
                                                          replace=False))

        def check_figure2(out):
            code, text, _ = out
            ck.equal(code, 0, "figure 2 exit code")
            rows = ck.csv_table(text, ["mu1", "q1", "q2", "q3"])
            ck.equal(len(rows), 401, "figure 2 rows")
            table = [[float(c) for c in row] for row in rows]
            ck.nondecreasing([r[1] for r in table], "figure 2 q1 in mu1", tol=1e-9)
            for r in table:
                ck.on_simplex(r[1:], f"figure 2 row mu1={r[0]}", tol=1e-8)
            for k in rows_checked:
                x = ref.quadratic_solution(DEMO_QUADRATIC, [table[k][0], 0.0, 0.0])
                ck.close(table[k][1:], x, 1e-6, f"figure 2 q at mu1={table[k][0]}")

        ops.append(Op("cli.figure2", lambda: run_cli(["figure", "--example", "2"]),
                      check_figure2))
        return ops


# --------------------------------------------------------------------------
# monte-carlo
# --------------------------------------------------------------------------

SE_LIMIT = 6.0
MC_SIZES = {3: 1 << 17, 8: 1 << 14}
PANEL_SAMPLES = 1 << 19
BINARY_SAMPLES = {"mnl": 1 << 12, "ram_entropy": 4}
CLI_RUM_SAMPLES = 1 << 15
DETERMINISM_SAMPLES = 3 << 16


def mc_probs_reference(family: str, mu: list[float]) -> list[float]:
    """Choice probabilities under unit-scale iid noise (ties to the lowest index)."""
    if family == "gumbel":
        return ref.softmax(mu)
    if family == "degenerate":
        best = max(range(len(mu)), key=lambda i: (mu[i], -i))
        return [1.0 if i == best else 0.0 for i in range(len(mu))]
    return ref.iid_choice_probs(family, 1.0, mu)


def mc_welfare_reference(family: str, mu: list[float]) -> float:
    """Expected maximum of mu + eps under unit-scale iid noise."""
    if family == "gumbel":
        return ref.gumbel_expected_max(mu, 1.0)
    if family == "degenerate":
        return max(mu)
    return ref.iid_expected_max(family, 1.0, mu)


def check_probs(probs, std_errors, samples, probs_ref, what):
    """Within SE_LIMIT standard errors, the reported ones floored at the
    reference's, so that an estimate of 0 for a small p cannot pass with a
    standard error of 0."""
    ck.on_simplex(probs, what)
    floor = [math.sqrt(p * (1.0 - p) / samples) for p in probs_ref]
    se = [max(a, b) for a, b in zip(lst(std_errors), floor)]
    ck.within_se(probs, probs_ref, se, SE_LIMIT, what)


def uniforms(seed: int, size: int) -> list[float]:
    """The uniforms of stream 0 of `seed`, by the package's documented
    contract: SeedSequence(seed, spawn_key=(partition,))."""
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return lst(gen.random(size))


def binary_sample_mean(mu, u: list[float]) -> float:
    """Mean of max(mu + eps) when xi = logit(u), the logit construction."""
    total = []
    for v in u:
        xi = ref.logit(v)
        v0 = math.log(2.0)
        eps = (v0 - max(xi, 0.0), v0 - max(-xi, 0.0))
        total.append(max(mu[0] + eps[0], mu[1] + eps[1]))
    return math.fsum(total) / len(total)


class MonteCarlo(Workload):
    name = "monte-carlo"
    families = ("gumbel", "normal", "logistic", "degenerate")
    panel_shape = (PANEL_SAMPLES, 3)

    def setup(self) -> None:
        self.samplers = {}
        for n in MC_SIZES:
            self.samplers[("gumbel", n)] = rum.gumbel_sampler(1.0, n)
            self.samplers[("normal", n)] = rum.normal_sampler(1.0, n)
            self.samplers[("logistic", n)] = rum.logistic_sampler(1.0, n)
            self.samplers[("degenerate", n)] = rum.degenerate_sampler(n)
        self.binary = {
            "mnl": rum.binary_rum_from_welfare(self.build(MNL2, "mnl2")),
            "ram_entropy": rum.binary_rum_from_welfare(
                self.build({"kind": "ram_entropy", "n": 2, "eta": 1.0}, "ram_entropy2")),
        }
        self.binary_samplers = {k: c.sampler() for k, c in self.binary.items()}

    def job(self, rng):
        ops: list[Op] = []
        for n, samples in MC_SIZES.items():
            mu = rng.uniform(-1.5, 1.5, n) if n == 3 else rng.uniform(-1.0, 1.0, n)
            for family in self.families:
                sampler = self.samplers[(family, n)]
                seed = int(rng.integers(2**31))
                what = f"{family} n={n}"

                def check_p(res, family=family, mu=mu, what=what):
                    probs_ref = mc_probs_reference(family, lst(mu))
                    if family == "degenerate":
                        ck.close(res.probs, probs_ref, 0.0, f"mc_choice_probs[{what}]")
                    else:
                        check_probs(res.probs, res.std_errors, res.samples, probs_ref,
                                    f"mc_choice_probs[{what}]")

                def check_w(res, family=family, mu=mu, what=what):
                    w_ref = mc_welfare_reference(family, lst(mu))
                    if family == "degenerate":
                        ck.close(res.value, w_ref, 1e-12 * max(1.0, abs(w_ref)),
                                 f"mc_welfare[{what}]")
                    else:
                        ck.within_se([res.value], [w_ref], [res.std_error], SE_LIMIT,
                                     f"mc_welfare[{what}]")

                ops.append(Op(f"mc_choice_probs[{what}]",
                              lambda s=sampler, mu=mu, seed=seed, k=samples:
                              rum.mc_choice_probs(s, mu, k, seed), check_p))
                ops.append(Op(f"mc_welfare[{what}]",
                              lambda s=sampler, mu=mu, seed=seed, k=samples:
                              rum.mc_welfare(s, mu, k, seed), check_w))

        mu = rng.uniform(-1.5, 1.5, 3)
        seed = int(rng.integers(2**31))

        def call_panel():
            model = rum.mc_welfare_model(self.samplers[("gumbel", 3)], PANEL_SAMPLES, seed)
            return model.value(mu), model.gradient(mu)

        def check_panel(out):
            w, q = out
            m = lst(mu)
            se_w = math.pi / math.sqrt(6.0) / math.sqrt(PANEL_SAMPLES)
            ck.within_se([w], [ref.gumbel_expected_max(m, 1.0)], [se_w], SE_LIMIT,
                         "mc_welfare_model value")
            p = ref.softmax(m)
            ck.within_se(q, p, [math.sqrt(v * (1 - v) / PANEL_SAMPLES) for v in p],
                         SE_LIMIT, "mc_welfare_model gradient")

        ops.append(Op("mc_welfare_model[gumbel n=3]", call_panel, check_panel))

        for label, construction in self.binary.items():
            mu2 = rng.uniform(-1.5, 1.5, 2)
            seed = int(rng.integers(2**31))
            u = rng.uniform(0.05, 0.95, 2)
            samples = BINARY_SAMPLES[label]

            def call(label=label, c=construction, mu2=mu2, seed=seed, u=u, k=samples):
                est = rum.mc_welfare(self.binary_samplers[label], mu2, k, seed)
                return est, c.sample_xi(u)

            def check(out, label=label, mu2=mu2, seed=seed, u=u, k=samples):
                est, xi = out
                m = lst(mu2)
                ck.close(xi, [ref.logit(v) for v in lst(u)], 1e-6,
                         f"binary[{label}] sample_xi vs logit")
                ck.close(est.value, binary_sample_mean(m, uniforms(seed, k)), 1e-6,
                         f"binary[{label}] mc_welfare vs reference draws")
                if k >= 1000:
                    ck.within_se([est.value], [ref.logsumexp(m)], [est.std_error],
                                 SE_LIMIT, f"binary[{label}] mc_welfare vs w")

            ops.append(Op(f"binary_construction[{label}]", call, check))

        rum_points = [rng.uniform(-1.5, 1.5, 3) for _ in range(2)]
        seed = int(rng.integers(2**31))
        argv = ["rum", "--family", "gumbel", "--eta", "1", "--samples",
                str(CLI_RUM_SAMPLES), "--seed", str(seed)]
        for mu in rum_points:
            argv.append("--mu=" + fmt_vec(mu))

        def check_rum(out):
            code, text, _ = out
            ck.equal(code, 0, "rum exit code")
            header = ([f"mu_{i}" for i in (1, 2, 3)] + [f"p_{i}" for i in (1, 2, 3)]
                      + [f"se_{i}" for i in (1, 2, 3)] + ["mc_welfare", "welfare_se"])
            rows = ck.csv_table(text, header)
            ck.equal(len(rows), len(rum_points), "rum rows")
            for row, mu in zip(rows, rum_points):
                cells = [float(c) for c in row]
                m = lst(mu)
                ck.rel_close(cells[:3], m, 1e-9, "rum mu")
                check_probs(cells[3:6], cells[6:9], CLI_RUM_SAMPLES, ref.softmax(m), "rum p")
                ck.within_se([cells[9]], [ref.gumbel_expected_max(m, 1.0)], [cells[10]],
                             SE_LIMIT, "rum welfare")

        ops.append(Op("cli.rum[gumbel]", lambda: run_cli(argv), check_rum))
        return ops

    def after_jobs(self):
        argv = ["rum", "--family", "normal", "--mu", "0.5,0,-0.5", "--samples",
                str(DETERMINISM_SAMPLES), "--seed", "11"]

        def call():
            out = {}
            for threads in ("1", "2"):
                os.environ[rum.THREADS_ENV] = threads
                try:
                    out[threads] = run_cli(argv)
                finally:
                    os.environ[rum.THREADS_ENV] = "1"
            return out

        def check(out):
            ck.equal(out["1"][0], 0, "rum exit code at 1 thread")
            ck.holds(out["1"][1] == out["2"][1],
                     "rum CSV bytes differ between 1 and 2 threads")

        return [Op("rum CSV determinism across thread counts", call, check)]


WORKLOADS = {w.name: w for w in (ClosedForm, Ram, MonteCarlo)}
