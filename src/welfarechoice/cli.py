"""Command-line front end.

Subcommands: eval (welfare and choice probabilities at utility points),
figure (grid data for the two built-in demonstration models), verify
(axiom / sign / substitutability / superlinearity suites), convert
(representation conversions), rum (Monte Carlo simulation), validate
(spec checking).

Exit codes: 0 success or pass, 1 property violation found, 2 input error,
3 numeric failure. CSV outputs start with `# welfarechoice <version>` and
the run manifest, use 10-significant-digit shortest formatting, and are
written atomically. Stochastic outputs are byte-identical for a fixed
seed and sample count regardless of WELFARECHOICE_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import NumericError, stream_rng
from .duality import ConvergenceError, anchor_family, conjugate_V, simplex_grid
from .modelspec import (SpecError, build_model, demo_brand_model,
                        demo_quadratic_model, load_model, load_spec)
from .rum import (binary_rum_from_welfare, degenerate_sampler, gumbel_sampler,
                  logistic_sampler, mc_estimates, normal_sampler, rum_sign_test)
from .substitution import scan_line, substitutable_model_check
from .welfare import (batch_gradient, batch_value, check_axioms, check_superlinear,
                      model_bounds)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    out = format(float(x), ".10g")
    return "0" if out == "-0" else out


def _parse_vector(text: str, field: str = "--mu") -> np.ndarray:
    try:
        vec = np.array([float(p) for p in text.replace(" ", "").split(",") if p])
    except ValueError as exc:
        raise SpecError(field, f"cannot parse vector {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise SpecError(field, f"entries must be finite, got {text!r}")
    return vec


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _manifest_lines(command: str, config: dict) -> list[str]:
    lines = [f"# welfarechoice {__version__}", f"# command={command}"]
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    lines.append(f"# config={payload}")
    return lines


def _emit(out: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".welfarechoice-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    # wall-clock provenance goes to stderr so files stay byte-reproducible
    print(f"wrote {out} at {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=sys.stderr)


def _csv(command: str, config: dict, header: Sequence[str],
         rows: Sequence[Sequence[float]], out: Optional[str]) -> None:
    lines = _manifest_lines(command, config)
    lines.append(",".join(header))
    for row in rows:
        cells = [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
        lines.append(",".join(cells))
    _emit(out, lines)


def _welfare_table(model, texts: Sequence[str]):
    """The --mu points, and the header and rows (mu, w, q) at them, from one
    batch_value and one batch_gradient call."""
    mus = [_parse_vector(t) for t in texts]
    if not mus:
        raise SpecError("--mu", "at least one utility vector is required")
    for mu in mus:
        if mu.size != model.n:
            raise SpecError("--mu", f"expected {model.n} entries, got {mu.size}")
    header = [f"mu_{i+1}" for i in range(model.n)] + ["w"] + \
        [f"q_{i+1}" for i in range(model.n)]
    points = np.stack(mus)
    rows = [list(mu) + [w] + list(q) for mu, w, q in
            zip(points, batch_value(model, points), batch_gradient(model, points))]
    return mus, header, rows


def cmd_eval(args) -> int:
    bundle = load_model(args.spec)
    mus, header, rows = _welfare_table(bundle.model, args.mu)
    _csv("eval", {"spec": bundle.spec, "mu": [list(m) for m in mus]},
         header, rows, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    if args.example == 2:
        bundle = demo_quadratic_model()
        model = bundle.model
        grid = np.round(np.arange(-200, 201) * 0.01, 10)
        points = np.zeros((grid.size, 3))
        points[:, 0] = grid
        rows = [[t, *q] for t, q in zip(grid, batch_gradient(model, points))]
        _csv("figure", {"example": 2, "grid": [-2.0, 2.0, 0.01]},
             ["mu1", "q1", "q2", "q3"], rows, args.out)
        return EXIT_OK
    if args.example == 3:
        bundle = demo_brand_model()
        model = bundle.model
        lo, hi, step = -10.0, 5.0, 0.01
        steps = int(round((hi - lo) / step)) + 1
        table = scan_line(model, np.array([0.0, 0.0, 3.0]), i=0, j=1,
                          lo=lo, hi=hi, steps=steps)
        rows = [[r.mu_i, r.q_j, r.label] for r in table]
        _csv("figure", {"example": 3, "grid": [lo, hi, step],
                        "mu2": 0.0, "mu3": 3.0},
             ["mu1", "q2", "classification"], rows, args.out)
        return EXIT_OK
    raise SpecError("--example", "supported examples are 2 and 3")


def _report(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_verify(args) -> int:
    bundle = load_model(args.spec)
    model = bundle.model
    samples = args.samples
    seed = args.seed or 0

    if args.suite == "axioms":
        report = check_axioms(model, samples=samples, box=10.0, seed=seed)
        lines = [f"axiom suite for {model.name} ({samples} samples, box 10):"]
        for label, check in [("monotonicity", report.monotonic),
                             ("translation invariance", report.translation_invariant),
                             ("convexity", report.convex)]:
            status = "pass (no violation found)" if check.passed else \
                f"FAIL witness={check.witness}"
            lines.append(f"  {label}: {status}")
        _report(lines)
        return EXIT_OK if report.all_passed else EXIT_VIOLATION

    if args.suite == "rum-signs":
        rng = stream_rng(seed)
        points = [rng.uniform(-3.0, 3.0, model.n) for _ in range(min(samples, 50))]
        report = rum_sign_test(model, max_order=3, points=points)
        lines = [f"sign tests for {model.name} ({len(points)} points):"]
        for v in report.verdicts:
            status = "pass" if v.passed else (
                f"FAIL worst violation {v.worst_violation:.3e} at "
                f"mu={np.round(v.witness_point, 4)} indices={v.witness_indices}")
            lines.append(f"  order {v.order} ({v.tuples_tested} tuples): {status}")
        _report(lines)
        return EXIT_OK if report.passed else EXIT_VIOLATION

    if args.suite == "substitutable":
        report = substitutable_model_check(model, samples=samples, seed=seed)
        lines = [f"substitutability check for {model.name}: {report.verdict}",
                 f"  lattice sampling: {report.submodularity.verdict} "
                 f"({report.submodularity.samples_used} pairs)"]
        if report.complementary_witness is not None:
            c = report.complementary_witness
            lines.append(
                f"  complementary pair ({c.i + 1},{c.j + 1}) at "
                f"mu={np.round(report.witness_mu, 4)} estimate={c.estimate:.3e}")
        _report(lines)
        return EXIT_OK if report.verdict == "substitutable-consistent" \
            else EXIT_VIOLATION

    if args.suite == "superlinear":
        bounds, _ = model_bounds(model)
        report = check_superlinear(model, bounds, samples=samples, seed=seed)
        lines = [f"superlinear bound check for {model.name} (analytic bounds "
                 f"{np.round(bounds, 6)}):"]
        if report.passed:
            lines.append(f"  pass, worst margin {report.worst_margin:.3e}")
        else:
            lines.append(f"  FAIL witness={report.witness}")
        _report(lines)
        return EXIT_OK if report.passed else EXIT_VIOLATION

    raise SpecError("--suite", f"unknown suite {args.suite!r}")


def cmd_convert(args) -> int:
    bundle = load_model(args.spec)
    model = bundle.model

    if args.direction == "w-to-v":
        points = [_parse_vector(t, "--x") for t in args.x]
        if not points and args.grid_step is not None:
            try:
                points = list(simplex_grid(model.n, args.grid_step, margin=1e-3))
            except ValueError as exc:
                raise SpecError("--grid-step", str(exc)) from exc
            if not points:
                raise SpecError("--grid-step", "no grid node lies inside the simplex")
        if not points:
            raise SpecError("--x", "provide --x points or --grid-step")
        header = [f"x_{i+1}" for i in range(model.n)] + ["V"]
        # conjugate_V refuses an x off the model's simplex (exit 2)
        rows = [list(x) + [conjugate_V(model, x)] for x in points]
        _csv("convert", {"direction": "w-to-v", "spec": bundle.spec},
             header, rows, args.out)
        return EXIT_OK

    if args.direction == "v-to-w":
        if bundle.regularizer is None:
            raise SpecError("--direction",
                            "v-to-w requires a regularizer-backed (ram_*) spec")
        _, header, rows = _welfare_table(model, args.mu)
        _csv("convert", {"direction": "v-to-w", "spec": bundle.spec},
             header, rows, args.out)
        return EXIT_OK

    if args.direction == "w-to-theta":
        anchors = [_parse_vector(t, "--anchor") for t in args.anchor]
        if not anchors:
            raise SpecError("--anchor", "at least one anchor is required")
        family = anchor_family(model, anchors)
        n = model.n
        header = ([f"z_{i+1}" for i in range(n)]
                  + [f"weight_{i+1}" for i in range(n)]
                  + ["offset", "penalty", "t_star"])
        rows = [list(d.z) + list(d.weights) + [d.offset, d.penalty, d.t_star]
                for d in family]
        _csv("convert", {"direction": "w-to-theta", "spec": bundle.spec},
             header, rows, args.out)
        return EXIT_OK

    raise SpecError("--direction", f"unknown direction {args.direction!r}")


def cmd_rum(args) -> int:
    seed = args.seed if args.seed is not None else 0
    samples = args.samples
    mus = [_parse_vector(t) for t in args.mu]
    if not mus:
        raise SpecError("--mu", "at least one utility vector is required")

    if args.binary_from_spec:
        bundle = load_model(args.binary_from_spec)
        construction = binary_rum_from_welfare(bundle.model)
        sampler = construction.sampler()
        header = ["mu_1", "mu_2", "mc_welfare", "std_error", "w_closed_form"]
        if any(mu.size != 2 for mu in mus):
            raise SpecError("--mu", "binary construction needs 2 entries")
        rows = [list(mu) + [est.value, est.std_error, bundle.model.value(mu)]
                for mu, (_, est) in zip(mus, mc_estimates(sampler, mus, samples, seed))]
        _csv("rum", {"mode": "binary-from-welfare", "spec": bundle.spec,
                     "samples": samples, "seed": seed,
                     "bracket": construction.bracket,
                     "truncated": construction.truncated},
             header, rows, args.out)
        return EXIT_OK

    n = mus[0].size
    for mu in mus:
        if mu.size != n:
            raise SpecError("--mu", "all utility vectors must share a dimension")
    if args.family == "gumbel":
        sampler = gumbel_sampler(args.eta, n)
    elif args.family == "normal":
        sampler = normal_sampler(args.sd, n)
    elif args.family == "logistic":
        sampler = logistic_sampler(args.scale, n)
    elif args.family == "degenerate":
        sampler = degenerate_sampler(n)
    else:
        raise SpecError("--family", f"unknown family {args.family!r}")

    header = ([f"mu_{i+1}" for i in range(n)]
              + [f"p_{i+1}" for i in range(n)]
              + [f"se_{i+1}" for i in range(n)]
              + ["mc_welfare", "welfare_se"])
    rows = [list(mu) + list(probs.probs) + list(probs.std_errors)
            + [welf.value, welf.std_error]
            for mu, (probs, welf) in zip(mus, mc_estimates(sampler, mus, samples, seed))]
    _csv("rum", {"family": sampler.family, "samples": samples, "seed": seed},
         header, rows, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    build_model(spec)
    print(f"{args.spec}: valid ({spec.get('kind')})")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welfarechoice",
        description="Discrete choice models through welfare functions")
    parser.add_argument("--version", action="version",
                        version=f"welfarechoice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="welfare and probabilities at points")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--mu", action="append", default=[])
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_fig = sub.add_parser("figure", help="grid data for the demo models")
    p_fig.add_argument("--example", type=int, required=True, choices=(2, 3))
    p_fig.add_argument("--out")
    p_fig.set_defaults(func=cmd_figure)

    p_ver = sub.add_parser("verify", help="property suites with witnesses")
    p_ver.add_argument("--spec", required=True)
    p_ver.add_argument("--suite", required=True,
                       choices=("axioms", "rum-signs", "substitutable",
                                "superlinear"))
    p_ver.add_argument("--samples", type=_positive_int, default=1000)
    p_ver.add_argument("--seed", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("convert", help="representation conversions")
    p_conv.add_argument("--spec", required=True)
    p_conv.add_argument("--direction", required=True,
                        choices=("w-to-v", "v-to-w", "w-to-theta"))
    p_conv.add_argument("--x", action="append", default=[])
    p_conv.add_argument("--mu", action="append", default=[])
    p_conv.add_argument("--anchor", action="append", default=[])
    p_conv.add_argument("--grid-step", type=float)
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=cmd_convert)

    p_rum = sub.add_parser("rum", help="Monte Carlo simulation")
    p_rum.add_argument("--family", default="gumbel",
                       choices=("gumbel", "normal", "logistic", "degenerate"))
    p_rum.add_argument("--eta", type=float, default=1.0)
    p_rum.add_argument("--sd", type=float, default=1.0)
    p_rum.add_argument("--scale", type=float, default=1.0)
    p_rum.add_argument("--binary-from-spec")
    p_rum.add_argument("--mu", action="append", default=[])
    p_rum.add_argument("--samples", type=_positive_int, default=100000)
    p_rum.add_argument("--seed", type=int)
    p_rum.add_argument("--out")
    p_rum.set_defaults(func=cmd_rum)

    p_val = sub.add_parser("validate", help="check a spec without running")
    p_val.add_argument("--spec", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # exit codes are a contract: 0/1/2/3 only
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
