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
from typing import Callable, Optional, Sequence

import numpy as np

from .core import finite_diff_gradient, mixed_partial, stream_rng

SIGN_REL_TOL = 1e-4
GEV_VALIDATION_SAMPLES = 64
GEV_VALIDATION_SEED = 7
# Grid of the superlinear-bound estimate: GRID_POINTS per axis on
# [-GRID_BOX, GRID_BOX]^n, refused above MAX_GRID_SIZE points.
GRID_BOX = 20.0
GRID_POINTS = 5
MAX_GRID_SIZE = GRID_POINTS ** 7
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
    """

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    superlinear_bounds: Optional[np.ndarray] = None
    name: str = "welfare"

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
    if eta <= 0:
        raise ValueError("eta must be positive")
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
    if np.any(lam <= 0) or np.any(lam > 1):
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


def _sign_test(f: Callable[[np.ndarray], float], points,
               orders: Sequence[int]) -> SignTestReport:
    """Per-order verdicts of f at `points`. A tuple of k distinct indices
    violates the condition by (-1)^k * (mixed partial) - SIGN_REL_TOL *
    max(1, |f(point)|) when that is positive; each order keeps its first
    worst, in point -> order -> tuple order."""
    worst = dict.fromkeys(orders, (-np.inf, None, None))
    tested = dict.fromkeys(orders, 0)
    for point in points:
        tol = SIGN_REL_TOL * max(1.0, abs(f(point)))
        for order in orders:
            sign = (-1.0) ** order
            for combo in itertools.combinations(range(point.size), order):
                violation = sign * mixed_partial(f, point, combo) - tol
                tested[order] += 1
                if violation > worst[order][0]:
                    worst[order] = (violation, point, combo)
    verdicts = []
    for order in orders:
        violation, point, combo = worst[order]
        passed = violation <= 0.0
        verdicts.append(OrderVerdict(order=order, passed=passed,
                                     worst_violation=float(violation),
                                     witness_point=None if passed else point,
                                     witness_indices=None if passed else combo,
                                     tuples_tested=tested[order]))
    return SignTestReport(max_order=max(orders), verdicts=tuple(verdicts))


def check_generator_signs(gen: GEVGenerator, n: int, samples: int = 30,
                          max_order: int = 3, seed: int = 7) -> SignTestReport:
    """Advisory sign test of H, orders 1..max_order, at `samples` points of
    [0.3, 2.5]^n. A generator that passes defines an extreme-value noise
    model; one that fails still defines a welfare function, just without
    the random-utility interpretation."""
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be in {1, 2, 3}")
    rng = stream_rng(seed)
    points = [rng.uniform(0.3, 2.5, size=n) for _ in range(samples)]
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
    if gen.eta <= 0:
        raise ValueError("eta must be positive")
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


def check_axioms(model: WelfareModel, samples: int = 1000, box: float = 10.0,
                 seed: int = 0) -> AxiomReport:
    """Randomized test of monotonicity, translation invariance, convexity."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = stream_rng(seed)
    n = model.n
    slack = 1e-9

    mono = AxiomCheck(True)
    trans = AxiomCheck(True)
    conv = AxiomCheck(True)
    shifts = [-3.0, 0.7, 10.0]

    for k in range(samples):
        mu = rng.uniform(-box, box, n)
        w_mu = model.value(mu)

        if mono.passed:
            delta = rng.uniform(0.0, box / 2, n)
            if model.value(mu + delta) < w_mu - slack:
                mono = AxiomCheck(False, {"mu": mu, "delta": delta,
                                          "gap": float(w_mu - model.value(mu + delta))})

        if trans.passed:
            t = shifts[k % len(shifts)] if k < 3 * len(shifts) else float(
                rng.uniform(-box, box))
            err = abs(model.value(mu + t * np.ones(n)) - w_mu - t)
            if err > 1e-8:
                trans = AxiomCheck(False, {"mu": mu, "t": t, "error": float(err)})

        if conv.passed:
            nu = rng.uniform(-box, box, n)
            mid = model.value(0.5 * (mu + nu))
            if 0.5 * (w_mu + model.value(nu)) < mid - slack:
                conv = AxiomCheck(False, {
                    "mu": mu, "nu": nu,
                    "gap": float(mid - 0.5 * (w_mu + model.value(nu)))})

        if not (mono.passed or trans.passed or conv.passed):
            break

    return AxiomReport(monotonic=mono, translation_invariant=trans,
                       convex=conv, samples_used=k + 1)


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
    the witness is the first violating draw, and a NaN margin is none.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    b = np.asarray(b, dtype=float)
    rng = stream_rng(seed)
    worst = np.inf
    for start in range(0, samples, _DRAW_BLOCK):
        mu = rng.uniform(-box, box, (min(_DRAW_BLOCK, samples - start), model.n))
        margins = batch_value(model, mu)[:, None] - mu - b
        lowest = np.min(margins, axis=1)
        bad = np.flatnonzero(lowest < -1e-9)
        if bad.size:
            k, m = bad[0], float(lowest[bad[0]])
            witness = {"mu": mu[k].copy(), "i": int(np.argmin(margins[k])), "margin": m}
            return SuperlinearReport(False, witness, m)
        worst = float(np.fmin.reduce(lowest, initial=worst))
    return SuperlinearReport(True, None, worst)


def estimate_superlinear_bounds(model: WelfareModel) -> np.ndarray:
    """Coarse-grid estimate of the largest valid superlinear constants.

    Returns elementwise minima of w(mu) - mu_i over a uniform grid on
    [-GRID_BOX, GRID_BOX]^n; the result may overestimate the true infimum
    and is only used as a search-radius heuristic. The grid has
    GRID_POINTS^n points, so a model with more than MAX_GRID_SIZE of them
    is refused before any is evaluated.
    """
    n = model.n
    if GRID_POINTS ** n > MAX_GRID_SIZE:
        raise ValueError(
            f"{model.name} has no analytic superlinear bounds, and estimating "
            f"them takes {GRID_POINTS}^{n} evaluations (cap {MAX_GRID_SIZE})")
    axes = [np.linspace(-GRID_BOX, GRID_BOX, GRID_POINTS)] * n
    points = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
    return np.min(batch_value(model, points)[:, None] - points, axis=0)


def model_bounds(model: WelfareModel) -> tuple[np.ndarray, bool]:
    """Superlinear constants for a model: analytic if present, else estimated.

    Returns (bounds, estimated_flag).
    """
    if model.superlinear_bounds is not None:
        return np.asarray(model.superlinear_bounds, dtype=float), False
    return estimate_superlinear_bounds(model), True
