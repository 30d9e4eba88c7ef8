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
import functools
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


def _parse_points(texts: Sequence[str], field: str, n: Optional[int] = None) -> np.ndarray:
    """The vectors of a repeated option as an (m, n) array, refused unless there is
    one or more, each of n finite entries (the first one's count when n is None)
    with no empty field."""
    if not texts:
        raise SpecError(field, "at least one point is required")
    points = []
    for text in texts:
        try:
            vec = np.array([float(p) for p in text.replace(" ", "").split(",")])
        except ValueError as exc:
            raise SpecError(field, f"cannot parse vector {text!r}") from exc
        if not np.all(np.isfinite(vec)):
            raise SpecError(field, f"entries must be finite, got {text!r}")
        n = vec.size if n is None else n
        if vec.size != n:
            raise SpecError(field, f"expected {n} entries, got {vec.size}")
        points.append(vec)
    return np.stack(points)


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
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".welfarechoice-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:  # a directory that is missing or unwritable, or --out one
        raise SpecError("--out", f"cannot write {out}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):  # the write did not finish
            os.unlink(tmp)
    # wall-clock provenance goes to stderr so files stay byte-reproducible
    print(f"wrote {out} at {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=sys.stderr)


def _csv(command: str, config: dict, header: Sequence[str],
         rows: Sequence[Sequence[float]], out: Optional[str]) -> None:
    """Write the manifest, the header and the rows: a text column as it is, a
    numeric one converted to float once, with + 0.0 turning -0.0 into 0."""
    lines = _manifest_lines(command, config)
    lines.append(",".join(header))
    columns = list(zip(*rows))
    fmt = ",".join("%s" if isinstance(col[0], str) else "%.10g" for col in columns)
    columns = [col if isinstance(col[0], str) else (np.asarray(col, float) + 0.0).tolist()
               for col in columns]
    lines.extend(fmt % row for row in zip(*columns))
    _emit(out, lines)


def _welfare_table(model, texts: Sequence[str]):
    """The --mu points, and the header and rows (mu, w, q) at them, from one
    batch_value and one batch_gradient call. A row whose w or q is not finite,
    or whose q is off the unit sum by more than 1e-9, is a NumericError."""
    points = _parse_points(texts, "--mu", model.n)
    header = [f"mu_{i+1}" for i in range(model.n)] + ["w"] + \
        [f"q_{i+1}" for i in range(model.n)]
    w, q = batch_value(model, points), batch_gradient(model, points)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN sum, refused below
        bad = ~np.isfinite(w) | ~(np.abs(q.sum(axis=-1) - 1.0) <= 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericError(f"{model.name} gave w = {w[k]!r}, q = {q[k].tolist()} "
                           f"at mu = {points[k].tolist()}")
    rows = [list(mu) + [w_k] + list(q_k) for mu, w_k, q_k in zip(points, w, q)]
    return points, header, rows


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
    # example 3, the one other that argparse lets through
    model = demo_brand_model().model
    lo, hi, step = -10.0, 5.0, 0.01
    steps = int(round((hi - lo) / step)) + 1
    rows = scan_line(model, np.array([0.0, 0.0, 3.0]), i=0, j=1,
                     lo=lo, hi=hi, steps=steps)
    _csv("figure", {"example": 3, "grid": [lo, hi, step],
                    "mu2": 0.0, "mu3": 3.0},
         ["mu1", "q2", "classification"], rows, args.out)
    return EXIT_OK


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
        _emit(None, lines)
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
        _emit(None, lines)
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
        _emit(None, lines)
        return EXIT_OK if report.verdict == "substitutable-consistent" \
            else EXIT_VIOLATION

    # superlinear, the last suite argparse lets through
    bounds, _ = model_bounds(model)
    report = check_superlinear(model, bounds, samples=samples, seed=seed)
    lines = [f"superlinear bound check for {model.name} (analytic bounds "
             f"{np.round(bounds, 6)}):"]
    if report.passed:
        lines.append(f"  pass, worst margin {report.worst_margin:.3e}")
    else:
        lines.append(f"  FAIL witness={report.witness}")
    _emit(None, lines)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_convert(args) -> int:
    bundle = load_model(args.spec)
    model = bundle.model

    if args.direction == "w-to-v":
        if args.x or args.grid_step is None:
            points = _parse_points(args.x, "--x", model.n)
        else:
            try:
                points = simplex_grid(model.n, args.grid_step, margin=1e-3)
            except ValueError as exc:
                raise SpecError("--grid-step", str(exc)) from exc
            if not len(points):
                raise SpecError("--grid-step", "no grid node lies inside the simplex")
        header = [f"x_{i+1}" for i in range(model.n)] + ["V"]
        # conjugate_V refuses an x off the model's simplex (exit 2)
        rows = [list(x) + [v] for x, v in zip(points, conjugate_V(model, points))]
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

    # w-to-theta, the last direction argparse lets through
    family = anchor_family(model, _parse_points(args.anchor, "--anchor", model.n))
    n = model.n
    header = ([f"z_{i+1}" for i in range(n)]
              + [f"weight_{i+1}" for i in range(n)]
              + ["offset", "penalty", "t_star"])
    rows = [list(d.z) + list(d.weights) + [d.offset, d.penalty, d.t_star]
            for d in family]
    _csv("convert", {"direction": "w-to-theta", "spec": bundle.spec},
         header, rows, args.out)
    return EXIT_OK


def cmd_rum(args) -> int:
    seed = args.seed if args.seed is not None else 0
    samples = args.samples
    mus = _parse_points(args.mu, "--mu", 2 if args.binary_from_spec else None)

    if args.binary_from_spec:
        bundle = load_model(args.binary_from_spec)
        construction = binary_rum_from_welfare(bundle.model)
        sampler = construction.sampler()
        header = ["mu_1", "mu_2", "mc_welfare", "std_error", "w_closed_form"]
        rows = [list(mu) + [est.value, est.std_error, bundle.model.value(mu)]
                for mu, (_, est) in zip(mus, mc_estimates(sampler, mus, samples, seed))]
        _csv("rum", {"mode": "binary-from-welfare", "spec": bundle.spec,
                     "samples": samples, "seed": seed,
                     "bracket": construction.bracket,
                     "truncated": construction.truncated},
             header, rows, args.out)
        return EXIT_OK

    n = mus.shape[1]
    sampler = {"gumbel": lambda: gumbel_sampler(args.eta, n),
               "normal": lambda: normal_sampler(args.sd, n),
               "logistic": lambda: logistic_sampler(args.scale, n),
               "degenerate": lambda: degenerate_sampler(n)}[args.family]()

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


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # a SpecError among them
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # exit codes are a contract: 0/1/2/3 only
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
