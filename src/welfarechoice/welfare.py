"""Welfare-function models and the axioms that define them.

A `WelfareModel` bundles a scalar welfare function w over deterministic
utilities with its gradient, which is the choice probability map. The
closed-form zoo lives here (multinomial logit, nested logit, generator-based
extreme-value models, log-sum-of-exponentials composites) together with
sampling-based checkers for the defining axioms (monotonicity, translation
invariance, convexity) and for the superlinear lower-bound property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import (NumericError, _evaluate, finite_diff_gradient, mixed_partial,
                   positive_scale, stream_rng)

if TYPE_CHECKING:
    from .ram import Regularizer

SIGN_REL_TOL = 1e-4
GEV_VALIDATION_SAMPLES = 64
GEV_VALIDATION_SEED = 7
_DRAW_BLOCK = 2 ** 16  # rows per block of `check_superlinear`, bounding its memory


@dataclass(frozen=True)
class WelfareModel:
    """Evaluable welfare function w with gradient q = grad w.

    Both callables broadcast over leading axes: `value` maps utilities of
    shape (..., n) to shape (...), and `gradient` maps them to shape
    (..., n), each row a point on the probability simplex. Per-point
    functions meet this contract through `pointwise`.
    `superlinear_bounds` holds per-alternative constants b with
    w(mu) >= mu_i + b_i when such bounds are known analytically.
    `regularizer` is the V a RAM model was built from (`ram_welfare`), so
    that its conjugate and inverse choice map are read from V and grad V;
    it is None for closed forms and transforms.
    """

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    superlinear_bounds: Optional[np.ndarray] = None
    name: str = "welfare"
    regularizer: Optional[Regularizer] = None

    def __call__(self, mu) -> float:
        return float(self.value(np.asarray(mu, dtype=float)))


def pointwise(f: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a function of one utility vector to the broadcasting contract.

    The lifted function calls `f` directly on a 1-D input and once per row
    of the leading axes otherwise, stacking the results in row order.
    """

    def lifted(mu):
        if np.ndim(mu) <= 1:
            return f(mu)
        mu = np.asarray(mu, dtype=float)
        out = np.asarray([f(row) for row in mu.reshape(-1, mu.shape[-1])])
        return out.reshape(mu.shape[:-1] + out.shape[1:])

    return lifted


def _checked(model, what: str, points, shape: tuple) -> np.ndarray:
    """model.value or model.gradient at points, checked to have `shape`; the
    model is a `WelfareModel` or a `ram.Regularizer`, which broadcast alike."""
    out = np.asarray(getattr(model, what)(np.asarray(points, dtype=float)), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{model.name}.{what} returned shape {out.shape}, not {shape}: "
                         f"a {type(model).__name__} broadcasts over points of shape "
                         "(..., n); wrap per-point functions in welfarechoice.pointwise")
    return out


def batch_value(model: WelfareModel, points) -> np.ndarray:
    """w at utilities of shape (..., n) in one call, checked against the contract."""
    return _checked(model, "value", points, np.shape(points)[:-1])


def batch_gradient(model: WelfareModel, points) -> np.ndarray:
    """q at utilities of shape (..., n) in one call, checked against the contract."""
    return _checked(model, "gradient", points, np.shape(points))


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Shift-stabilized log(sum(exp(a))); safe for entries up to +-700."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilized exp(a)/sum(exp(a))."""
    a = np.asarray(a, dtype=float)
    z = np.exp(a - np.max(a, axis=axis, keepdims=True))
    return z / np.sum(z, axis=axis, keepdims=True)


def mnl_welfare(eta: float, n: int) -> WelfareModel:
    """Multinomial logit: w(mu) = eta * log(sum_i exp(mu_i / eta))."""
    positive_scale(eta, "eta")
    if n < 1:
        raise ValueError("need at least one alternative")

    def value(mu):
        return eta * logsumexp(np.asarray(mu, float) / eta)

    def gradient(mu):
        return softmax(np.asarray(mu, float) / eta)

    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=np.zeros(n),
                        name=f"mnl(eta={eta:g})")


def nested_logit_welfare(nests: Sequence[Sequence[int]],
                         lambdas: Sequence[float],
                         n: int) -> WelfareModel:
    """Nested logit with w(mu) = log sum_l (sum_{i in B_l} e^{mu_i/l_l})^{l_l}.

    `nests` partitions range(n) into disjoint blocks; each block has a
    dissimilarity parameter in (0, 1].
    """
    blocks = [np.asarray(sorted(b), dtype=int) for b in nests]
    lam = np.asarray(lambdas, dtype=float)
    if len(blocks) != lam.size:
        raise ValueError("one lambda per nest required")
    if any(b.size == 0 for b in blocks):
        raise ValueError("empty nest")
    flat = np.concatenate(blocks) if blocks else np.array([], dtype=int)
    if sorted(flat.tolist()) != list(range(n)):
        raise ValueError("nests must partition the alternatives")
    if not np.all((lam > 0) & (lam <= 1)):
        raise ValueError("nest parameters must lie in (0, 1]")

    nest_of = np.empty(n, dtype=int)
    for k, b in enumerate(blocks):
        nest_of[b] = k

    def nest_logsums(mu):
        return np.stack([logsumexp(mu[..., b] / lam[k])
                         for k, b in enumerate(blocks)], axis=-1)

    def value(mu):
        mu = np.asarray(mu, float)
        return logsumexp(lam * nest_logsums(mu))

    def gradient(mu):
        mu = np.asarray(mu, float)
        ls = nest_logsums(mu)
        w = logsumexp(lam * ls)
        k = nest_of
        logq = mu / lam[k] + (lam[k] - 1.0) * ls[..., k] - np.expand_dims(w, -1)
        return np.exp(logq)

    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=np.zeros(n),
                        name=f"nested_logit(K={len(blocks)})")


def log_sum_welfare(weights: Sequence[Sequence[float]],
                    name: str = "log_sum") -> WelfareModel:
    """Welfare w(mu) = log sum_r exp((W mu)_r) for a nonnegative matrix W.

    This is unit-scale logit over the m rows of W crossed with W, renamed:
    `cross(mnl_welfare(1, m), W)`. Rows of W are mixing weights over
    alternatives and must sum to one; rows equal to a unit vector certify
    the bound w(mu) >= mu_i, which is recorded when it holds for every
    alternative.
    """
    from .transforms import cross

    W = np.atleast_2d(np.asarray(weights, dtype=float))
    return replace(cross(mnl_welfare(1.0, W.shape[0]), W), name=name)


@dataclass(frozen=True)
class GEVGenerator:
    """Generator function H for an extreme-value model.

    H maps the positive orthant to nonnegative reals and must be homogeneous
    of degree 1/eta. `partials` optionally supplies the first-order partial
    derivatives H_i; without them the model gradient falls back to finite
    differences of the welfare function.
    """

    eta: float
    H: Callable[[np.ndarray], float]
    partials: Optional[Callable[[np.ndarray], np.ndarray]] = None


class GeneratorInvalidError(ValueError):
    """The generator violated nonnegativity or homogeneity on a sample."""


@dataclass(frozen=True)
class OrderVerdict:
    order: int
    passed: bool
    worst_violation: float
    witness_point: Optional[np.ndarray]
    witness_indices: Optional[tuple]
    tuples_tested: int


@dataclass(frozen=True)
class SignTestReport:
    """Alternating-sign test on mixed partials: (-1)^k d^k f <= 0.

    Order 2 requires cross partials <= 0 (substitutability); order 3
    requires them >= 0. Each order's verdict carries its worst violation
    and, when it fails, the witness. Estimates use nested central
    differences, so the tolerance scales with the local magnitude of f;
    orders above 3 are refused as numerically meaningless in double
    precision.
    """

    max_order: int
    verdicts: tuple

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, order: int) -> OrderVerdict:
        for v in self.verdicts:
            if v.order == order:
                return v
        raise KeyError(order)


def _sign_test(f: Callable[[np.ndarray], np.ndarray], points,
               orders: Sequence[int]) -> SignTestReport:
    """Per-order verdicts of f at `points` (P, n). A tuple of k distinct
    indices violates the condition by (-1)^k * (mixed partial) - SIGN_REL_TOL
    * max(1, |f(point)|) when that is positive; each order keeps its first
    worst, in point -> tuple order. f is called once for the tolerances and
    once per tuple, at every point together."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        raise ValueError("a sign test needs at least one point")
    tol = SIGN_REL_TOL * np.fmax(1.0, np.abs(_evaluate(f, points, scalar=True)))
    verdicts = []
    for order in orders:
        combos = list(itertools.combinations(range(points.shape[1]), order))
        violation = np.reshape([(-1.0) ** order * mixed_partial(f, points, combo) - tol
                                for combo in combos], (len(combos), len(points))).T
        # a NaN violation is never the worst
        worst = float(np.fmax.reduce(violation, axis=None, initial=-np.inf))
        passed = worst <= 0.0
        p, t = (None, None) if passed else np.argwhere(violation == worst)[0]
        verdicts.append(OrderVerdict(order=order, passed=passed, worst_violation=worst,
                                     witness_point=None if passed else points[p],
                                     witness_indices=None if passed else combos[t],
                                     tuples_tested=violation.size))
    return SignTestReport(max_order=max(orders), verdicts=tuple(verdicts))


def check_generator_signs(gen: GEVGenerator, n: int, samples: int = 30,
                          max_order: int = 3, seed: int = 7) -> SignTestReport:
    """Advisory sign test of H, orders 1..max_order, at `samples` points of
    [0.3, 2.5]^n. A generator that passes defines an extreme-value noise
    model; one that fails still defines a welfare function, just without
    the random-utility interpretation."""
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be in {1, 2, 3}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    points = stream_rng(seed).uniform(0.3, 2.5, size=(samples, n))
    return _sign_test(pointwise(gen.H), points, range(1, max_order + 1))


def gev_welfare(gen: GEVGenerator, n: int) -> WelfareModel:
    """Welfare w(mu) = eta * log H(e^{mu_1}, ..., e^{mu_n}).

    The generator is validated on random positive points: H >= 0 and
    |H(alpha y) - alpha^{1/eta} H(y)| <= 1e-8 (1 + |H(y)|).

    A generator is nondecreasing, so H(e^mu) >= H(e^{mu_i} e_i)
    = e^{mu_i / eta} H(e_i) by homogeneity, which gives the superlinear
    bound w(mu) >= mu_i + eta * log H(e_i). It is recorded when every
    H(e_i) is positive.
    """
    positive_scale(gen.eta, "eta")
    rng = stream_rng(GEV_VALIDATION_SEED)
    for _ in range(GEV_VALIDATION_SAMPLES):
        y = rng.uniform(0.05, 3.0, size=n)
        hy = gen.H(y)
        if not np.isfinite(hy) or hy < 0:
            raise GeneratorInvalidError(f"H({y}) = {hy!r} is not nonnegative")
        alpha = rng.uniform(0.5, 2.0)
        scaled = gen.H(alpha * y)
        if abs(scaled - alpha ** (1.0 / gen.eta) * hy) > 1e-8 * (1.0 + abs(hy)):
            raise GeneratorInvalidError(
                f"H is not homogeneous of degree 1/eta at alpha={alpha:.4f}, y={y}")

    eta = gen.eta

    def value_at(mu):
        mu = np.asarray(mu, float)
        shift = float(np.max(mu))
        # homogeneity: H(e^mu) = e^{shift/eta} H(e^{mu - shift})
        h = gen.H(np.exp(mu - shift))
        if h <= 0:
            raise GeneratorInvalidError("H vanished at an evaluation point")
        return eta * np.log(h) + shift

    if gen.partials is not None:
        def gradient_at(mu):
            mu = np.asarray(mu, float)
            shift = float(np.max(mu))
            y = np.exp(mu - shift)
            h = gen.H(y)
            return eta * y * gen.partials(y) / h
    else:
        def gradient_at(mu):
            return finite_diff_gradient(pointwise(value_at), mu)

    with np.errstate(divide="ignore", invalid="ignore"):
        corners = np.array([gen.H(e) for e in np.eye(n)], dtype=float)
    bounds = None
    if np.all(np.isfinite(corners) & (corners > 0.0)):
        bounds = eta * np.log(corners)
    return WelfareModel(n=n, value=pointwise(value_at),
                        gradient=pointwise(gradient_at),
                        superlinear_bounds=bounds, name=f"gev(eta={eta:g})")


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of randomized axiom testing.

    A pass means no violation was found in `samples_used` draws; it is
    evidence, not proof. Failures carry the violating sample.
    """

    monotonic: AxiomCheck
    translation_invariant: AxiomCheck
    convex: AxiomCheck
    samples_used: int

    @property
    def all_passed(self) -> bool:
        return (self.monotonic.passed and self.translation_invariant.passed
                and self.convex.passed)


def _refuse_non_finite(model: WelfareModel, w: np.ndarray, points: np.ndarray) -> None:
    """Raise NumericError at the first non-finite entry of `w`, the values
    at the leading rows of `points`, naming its point."""
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NumericError(f"{model.name} has value {w[bad[0]]} at mu={points[bad[0]]}")


def _check_draws(samples: int, box: float) -> None:
    """Refuse fewer than one sample, and a box whose draws, -box + 2 box u,
    would not all be finite: a NaN point makes no comparison fail."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (box > 0 and np.isfinite(2.0 * box)):
        raise ValueError(f"box must be positive and finite, got {box!r}")


def check_axioms(model: WelfareModel, samples: int = 1000, box: float = 10.0,
                 seed: int = 0) -> AxiomReport:
    """Randomized test of monotonicity, translation invariance, convexity.

    Sample k draws mu, then delta while monotonicity is live, t while
    translation invariance is live (the first 9 samples cycle through fixed
    shifts instead), then nu while convexity is live, and tests
    w(mu + delta) >= w(mu), w(mu + t) = w(mu) + t and
    w((mu + nu) / 2) <= (w(mu) + w(nu)) / 2. Each witness is an axiom's
    first violating sample, and the test stops once all three have failed.

    Samples go in blocks of at most `_DRAW_BLOCK` rows (the first 9 apart),
    each one `rng.random` array in that per-sample layout and one call of
    `model.value` for its points. At a block's first violation the stream
    is rewound and redrawn up to that sample, so the draws, witnesses and
    `samples_used` are those of one sample at a time. A non-finite value
    at a sample up to that violation (any sample of a block without one)
    raises NumericError, as it would one sample at a time; a NaN breaks
    no comparison, so it would pass every axiom. A model that fails the
    broadcasting contract is evaluated through `pointwise` instead; that
    path goes once the benchmark's per-point control broadcasts.
    """
    _check_draws(samples, box)
    rng = stream_rng(seed)
    n = model.n
    slack = 1e-9
    shifts = np.array([-3.0, 0.7, 10.0])
    fixed = 3 * len(shifts)
    value = model.value
    live = {"mono": True, "trans": True, "conv": True}
    witness: dict = {}

    def evaluate(points):
        nonlocal value
        try:
            return _evaluate(value, points, scalar=True)
        except (TypeError, ValueError, IndexError):
            if value is not model.value:
                raise
            # a per-point model, lifted (ROADMAP item 1 retires this path)
            value = pointwise(model.value)
            return _evaluate(value, points, scalar=True)

    k = 0
    while k < samples and any(live.values()):
        size = min(fixed - k if k < fixed else _DRAW_BLOCK, samples - k)
        # a row holds mu, then delta, t and nu where their axiom is live;
        # each is scaled as rng.uniform scales it, low + (high - low) * u
        widths = [n, n * live["mono"], live["trans"] and k >= fixed, n * live["conv"]]
        state = rng.bit_generator.state
        u = rng.random((size, sum(widths)))
        mu, delta, t, nu = np.split(u, np.cumsum(widths)[:-1], axis=1)
        mu = -box + 2.0 * box * mu
        points = {"mu": mu}
        if live["mono"]:
            delta = box / 2 * delta
            points["up"] = mu + delta
        if live["trans"]:
            t = (-box + 2.0 * box * t[:, 0] if k >= fixed
                 else shifts[np.arange(k, k + size) % len(shifts)])
            points["shift"] = mu + t[:, None]
        if live["conv"]:
            nu = -box + 2.0 * box * nu
            points["mid"], points["nu"] = 0.5 * (mu + nu), nu
        stacked = np.stack(list(points.values()), axis=1).reshape(-1, n)
        flat = evaluate(stacked)
        w = dict(zip(points, flat.reshape(size, len(points)).T))

        # per live axiom: its violations and the witness at sample i
        tests = {}
        if live["mono"]:
            tests["mono"] = (w["up"] < w["mu"] - slack, lambda i: {
                "mu": mu[i].copy(), "delta": delta[i].copy(),
                "gap": float(w["mu"][i] - w["up"][i])})
        if live["trans"]:
            err = np.abs(w["shift"] - w["mu"] - t)
            tests["trans"] = (err > 1e-8, lambda i: {
                "mu": mu[i].copy(), "t": float(t[i]), "error": float(err[i])})
        if live["conv"]:
            chord = 0.5 * (w["mu"] + w["nu"])
            tests["conv"] = (chord < w["mid"] - slack, lambda i: {
                "mu": mu[i].copy(), "nu": nu[i].copy(),
                "gap": float(w["mid"][i] - chord[i])})

        first = {name: int(np.argmax(bad)) for name, (bad, _) in tests.items() if bad.any()}
        k0 = min(first.values(), default=size - 1)
        _refuse_non_finite(model, flat[:(k0 + 1) * len(points)], stacked)
        if not first:
            k += size
            continue
        for name, i in first.items():
            if i == k0:
                live[name], witness[name] = False, tests[name][1](k0)
        k += k0 + 1
        if k0 + 1 < size:
            # later samples drop the failed axioms' draws: rewind to sample k0's end
            rng.bit_generator.state = state
            rng.random((k0 + 1, u.shape[1]))

    return AxiomReport(*(AxiomCheck(live[name], witness.get(name)) for name in live),
                       samples_used=k)


@dataclass(frozen=True)
class SuperlinearReport:
    passed: bool
    witness: Optional[dict] = None
    worst_margin: float = np.inf


def check_superlinear(model: WelfareModel, b: Sequence[float] | np.ndarray,
                      samples: int = 1000, box: float = 10.0,
                      seed: int = 0) -> SuperlinearReport:
    """Test w(mu) >= mu_i + b_i at random points; failures carry (mu, i).

    Points are drawn and evaluated in blocks, one `batch_value` call each;
    the witness is the first violating draw. A non-finite value at a draw
    up to it (any draw when none violates) raises NumericError: a NaN
    margin breaks no bound.
    """
    _check_draws(samples, box)
    b = np.asarray(b, dtype=float)
    rng = stream_rng(seed)
    worst = np.inf
    for start in range(0, samples, _DRAW_BLOCK):
        mu = rng.uniform(-box, box, (min(_DRAW_BLOCK, samples - start), model.n))
        w = batch_value(model, mu)
        margins = w[:, None] - mu - b
        lowest = np.min(margins, axis=1)
        bad = np.flatnonzero(lowest < -1e-9)
        _refuse_non_finite(model, w[:bad[0] + 1] if bad.size else w, mu)
        if bad.size:
            k, m = bad[0], float(lowest[bad[0]])
            witness = {"mu": mu[k].copy(), "i": int(np.argmin(margins[k])), "margin": m}
            return SuperlinearReport(False, witness, m)
        worst = float(np.fmin.reduce(lowest, initial=worst))
    return SuperlinearReport(True, None, worst)


def model_bounds(model: WelfareModel) -> tuple[np.ndarray, bool]:
    """(analytic superlinear constants, False); without them a ValueError,
    since estimated constants certify no bound. The flag is always False."""
    if model.superlinear_bounds is None:
        raise ValueError(f"{model.name} has no analytic superlinear bounds")
    return np.asarray(model.superlinear_bounds, dtype=float), False
