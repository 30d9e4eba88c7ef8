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

from .core import (_central, _evaluate, mixed_partial, positive_scale, refuse_non_finite,
                   stream_rng)

SIGN_REL_TOL = 1e-4
GEV_VALIDATION_SAMPLES = 64
GEV_VALIDATION_SEED = 7
_DRAW_BLOCK = 2 ** 16  # rows per block of `check_superlinear`, bounding its memory


@dataclass(frozen=True, eq=False)  # compared by identity, never by its arrays
class Regularizer:
    """Strictly convex regularizer V on the simplex with interior gradient, so
    that mu.x - V(x) has one maximizer; the constructors refuse any other V.

    `value` maps points of shape (..., n) to shape (...) and `gradient` maps
    them to shape (..., n), each row equal to the call on that row alone;
    per-point functions meet this contract through `pointwise`.
    `boundary_barrier` marks gradients that blow up toward the boundary
    (solver must stay interior). `quadratic_matrix` holds A for
    V(x) = x' A x. `choice` is set for a separable V = sum_i v_i(x_i): it
    maps t of shape (..., n) to the coordinates x_i = (v_i')^{-1}(-t_i),
    clipped to [0, 1], so that the maximizer is choice(lam - mu) for the one
    multiplier lam with unit sum. `multiplier` maps mu of shape (m, n) to that lam
    where it has a closed form (entropy), which spares the search for it.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    boundary_barrier: bool
    name: str = "regularizer"
    quadratic_matrix: Optional[np.ndarray] = None
    choice: Optional[Callable[[np.ndarray], np.ndarray]] = None
    multiplier: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class WelfareModel:
    """Evaluable welfare function w with gradient q = grad w.

    Both callables broadcast over leading axes: `value` maps utilities of
    shape (..., n) to shape (...), and `gradient` maps them to shape
    (..., n), each row a point on the probability simplex. Per-point
    functions meet this contract through `pointwise`.
    `superlinear_bounds` holds per-alternative constants b with
    w(mu) >= mu_i + b_i when such bounds are known analytically.
    `regularizer` is the model's V = w*, from which its conjugate and inverse
    choice map are read: a RAM model's (`ram_welfare`), mnl's and nested
    logit's, and eta V of their `transforms.scale`; None for other models.
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
    of the leading axes otherwise, stacking the results in row order. An
    empty stack makes no call and gives shape (...), whatever `f` returns;
    `core._evaluate`, and so `batch_value` and `batch_gradient`, never pass one.
    """

    def lifted(mu):
        if np.ndim(mu) <= 1:
            return f(mu)
        mu = np.asarray(mu, dtype=float)
        out = np.asarray([f(row) for row in mu.reshape(-1, mu.shape[-1])])
        return out.reshape(mu.shape[:-1] + out.shape[1:])

    return lifted


def batch_value(model: WelfareModel, points) -> np.ndarray:
    """w (or V of a `ram.Regularizer`) at (..., n) in one call, checked by `core._evaluate`."""
    return _evaluate(model.value, points)


def batch_gradient(model: WelfareModel, points) -> np.ndarray:
    """q at utilities of shape (..., n) in one call, checked as `batch_value` is."""
    return _evaluate(model.gradient, points, np.shape(points)[-1:])


def _shifted_exp(a, eta: float):
    """exp((a - m) / eta) and m = max a over the last axis (kept); no finite a overflows."""
    a = np.asarray(a, dtype=float)
    m = a.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # a spread past the float range: exp(-inf) = 0
        z = a - m
        z /= eta
    return np.exp(z, out=z), m


def logsumexp(a: np.ndarray) -> np.ndarray | float:
    """Shift-stabilized log(sum(exp(a))) over the last axis."""
    z, m = _shifted_exp(a, 1.0)
    return np.log(z.sum(axis=-1)) + m[..., 0]


def softmax(a: np.ndarray) -> np.ndarray:
    """Shift-stabilized exp(a)/sum(exp(a)) over the last axis."""
    z, _ = _shifted_exp(a, 1.0)
    return z / z.sum(axis=-1, keepdims=True)


def _xlogx(x):
    """x log x elementwise, with the 0 log 0 = 0 convention."""
    x = np.asarray(x, float)
    return np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)


def entropy_regularizer(eta: float, n: int) -> Regularizer:
    """V(x) = eta * sum_i x_i log x_i with the 0 log 0 = 0 convention."""
    positive_scale(eta, "eta")

    def value(x):
        return eta * np.sum(_xlogx(x), axis=-1)

    def gradient(x):
        return eta * (1.0 + np.log(np.maximum(np.asarray(x, float), 1e-300)))

    def choice(t):
        with np.errstate(over="ignore"):  # a t / eta past the float range: exp(-inf) = 0
            return np.exp(np.minimum(-np.asarray(t, float) / eta - 1.0, 0.0))

    def multiplier(mu):  # divides after the shift, so no finite mu overflows
        z, m = _shifted_exp(mu, eta)
        return eta * (np.log(z.sum(axis=-1)) - 1.0) + m[..., 0]

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True,
                       name=f"entropy(eta={eta:g})", choice=choice,
                       multiplier=multiplier)


def mnl_welfare(eta: float, n: int) -> WelfareModel:
    """Multinomial logit: w(mu) = eta * log(sum_i exp(mu_i / eta)), whose
    conjugate is the entropy V(x) = eta * sum_i x_i log x_i."""
    positive_scale(eta, "eta")
    if n < 1:
        raise ValueError("need at least one alternative")

    def value(mu):
        z, m = _shifted_exp(mu, eta)
        return eta * np.log(z.sum(axis=-1)) + m[..., 0]

    def gradient(mu):
        z, _ = _shifted_exp(mu, eta)
        return z / z.sum(axis=-1, keepdims=True)

    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=np.zeros(n),
                        name=f"mnl(eta={eta:g})",
                        regularizer=entropy_regularizer(eta, n))


def nested_logit_welfare(nests: Sequence[Sequence[int]],
                         lambdas: Sequence[float],
                         n: int) -> WelfareModel:
    """Nested logit with w(mu) = log sum_l (sum_{i in B_l} e^{mu_i/l_l})^{l_l}.

    `nests` partitions range(n) into disjoint blocks; each block has a
    dissimilarity parameter in (0, 1]. Its conjugate is the strictly convex
    V(x) = sum_l [l_l sum_{i in B_l} x_i log x_i + (1 - l_l) X_l log X_l],
    X_l = sum_{i in B_l} x_i (Fosgerau, McFadden & Bierlaire 2013).
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

    # w and q depend on utility differences only, so both read utilities
    # relative to the largest, w adding it back: w(mu) = m + w(mu - m 1)
    def shifted(mu):
        mu = np.asarray(mu, float)
        top = mu.max(axis=-1, keepdims=True)
        # past the float range the intended term is -inf; flooring it at the
        # most negative float keeps a nest lying wholly there from -inf - -inf
        with np.errstate(over="ignore"):
            return top[..., 0], np.maximum((mu - top) / lam[nest_of], -np.finfo(float).max)

    def nest_logsums(z):
        return np.stack([logsumexp(z[..., b]) for b in blocks], axis=-1)

    def value(mu):
        top, z = shifted(mu)
        return top + logsumexp(lam * nest_logsums(z))

    def gradient(mu):
        # q = P(i | nest) P(nest)
        z = shifted(mu)[1]
        ls = nest_logsums(z)
        return np.exp(z - ls[..., nest_of]) * softmax(lam * ls)[..., nest_of]

    lam_of = lam[nest_of]
    member = np.equal.outer(nest_of, np.arange(len(blocks))).astype(float)  # (n, K)

    def V(x):  # x @ member holds the nest sums X_l
        return np.sum(lam_of * _xlogx(x), axis=-1) + _xlogx(x @ member) @ (1.0 - lam)

    def grad_V(x):
        return (1.0 + lam_of * np.log(np.maximum(x, 1e-300))
                + (1.0 - lam_of) * np.log(np.maximum(x @ member, 1e-300))[..., nest_of])

    name = f"nested_logit(K={len(blocks)})"
    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=np.zeros(n), name=name,
                        regularizer=Regularizer(n=n, value=V, gradient=grad_V,
                                                boundary_barrier=True, name=name))


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
    """Generator function H for an extreme-value model, homogeneous of
    degree 1/eta. H maps positive y of shape (..., n) to H(y) >= 0 of shape
    (...), and the optional `partials` maps y to H_i of shape (..., n): both
    broadcast as a `WelfareModel`'s functions do. Without `partials`, q is
    read from central differences of H in log y."""

    eta: float
    H: Callable[[np.ndarray], np.ndarray]
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
    tol = SIGN_REL_TOL * np.fmax(1.0, np.abs(_evaluate(f, points)))
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
    if n < 1:
        raise ValueError("need at least one alternative")
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be in {1, 2, 3}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    points = stream_rng(seed).uniform(0.3, 2.5, size=(samples, n))
    return _sign_test(gen.H, points, range(1, max_order + 1))


def gev_welfare(gen: GEVGenerator, n: int) -> WelfareModel:
    """Welfare w(mu) = eta * log H(e^{mu_1}, ..., e^{mu_n}).

    H is validated at random positive points (y, then alpha, per sample;
    the first failure named): H >= 0 and |H(alpha y) - alpha^{1/eta} H(y)|
    <= 1e-8 (1 + |H(y)|). A stack is one H call at y = e^s, s = mu - max mu
    (floored where it overflows), and w = eta log H(y) + max mu. With
    `partials`, q = eta y H_i / H; without, d_i = y_i H_i is the central
    difference of H(e^s) in s_i (step 1e-5), and q = d / sum d sums to 1,
    as Euler's identity gives sum d = H / eta. A nondecreasing homogeneous
    H has H(e^mu) >= e^{mu_i / eta} H(e_i), which gives the superlinear
    bound w(mu) >= mu_i + eta log H(e_i), recorded when every H(e_i) > 0.
    """
    positive_scale(gen.eta, "eta")
    if n < 1:
        raise ValueError("need at least one alternative")
    eta = gen.eta
    # a row per sample: its y, then its alpha, each scaled as rng.uniform scales it
    u = stream_rng(GEV_VALIDATION_SEED).random((GEV_VALIDATION_SAMPLES, n + 1))
    y, alpha = 0.05 + (3.0 - 0.05) * u[:, :n], 0.5 + (2.0 - 0.5) * u[:, n]
    hy, scaled = _evaluate(gen.H, y), _evaluate(gen.H, alpha[:, None] * y)
    with np.errstate(invalid="ignore"):  # a non-finite H is refused below
        negative = ~np.isfinite(hy) | (hy < 0)
        bad = negative | (np.abs(scaled - alpha ** (1.0 / eta) * hy) > 1e-8 * (1.0 + np.abs(hy)))
    k = int(np.argmax(bad))  # the first failing sample, if any
    if negative[k]:
        raise GeneratorInvalidError(f"H({y[k]}) = {float(hy[k])!r} is not nonnegative")
    if bad[k]:
        raise GeneratorInvalidError(
            f"H is not homogeneous of degree 1/eta at alpha={alpha[k]:.4f}, y={y[k]}")

    def log_y(mu):  # (s, max mu)
        m = np.max(mu, axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            return np.maximum(mu - m, -np.finfo(float).max), m[..., 0]

    def positive(h):  # H, or sum d = H / eta, checked before anything divides by it
        if np.any(h <= 0):
            raise GeneratorInvalidError("H vanished at an evaluation point")
        return h

    def value(mu):
        s, m = log_y(mu)
        return eta * np.log(positive(_evaluate(gen.H, np.exp(s)))) + m

    def gradient(mu):
        s = log_y(mu)[0]
        if gen.partials is None:
            hi, lo, step = _central(lambda t: gen.H(np.exp(t)), s, 1e-5, ())
            d = (hi - lo) / (2.0 * step)
            return d / positive(d.sum(axis=-1, keepdims=True))
        y = np.exp(s)
        h = positive(_evaluate(gen.H, y))[..., None]
        return eta * y * _evaluate(gen.partials, y, (n,)) / h

    with np.errstate(divide="ignore", invalid="ignore"):
        corners = _evaluate(gen.H, np.eye(n))
    ok = np.all(np.isfinite(corners) & (corners > 0.0))
    return WelfareModel(n=n, value=value, gradient=gradient, name=f"gev(eta={eta:g})",
                        superlinear_bounds=eta * np.log(corners) if ok else None)


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
            return _evaluate(value, points)
        except (TypeError, ValueError, IndexError):
            if value is not model.value:
                raise
            # a per-point model, lifted (ROADMAP item 1 retires this path)
            value = pointwise(model.value)
            return _evaluate(value, points)

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
        with np.errstate(over="ignore"):  # a w past the float range: inf, refused below
            flat = evaluate(stacked)
        w = dict(zip(points, flat.reshape(size, len(points)).T))

        # per live axiom: its violations and the witness at sample i
        tests = {}
        if live["mono"]:
            tests["mono"] = (w["up"] < w["mu"] - slack, lambda i: {
                "mu": mu[i].copy(), "delta": delta[i].copy(),
                "gap": float(w["mu"][i] - w["up"][i])})
        if live["trans"]:
            with np.errstate(invalid="ignore"):  # inf - inf: NaN, refused below
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
        rows = (k0 + 1) * len(points)
        refuse_non_finite(model.name, flat[:rows], stacked[:rows])
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
    A b that is not n finite numbers is a ValueError.

    Points are drawn and evaluated in blocks, one `batch_value` call each;
    the witness is the first violating draw. A non-finite value at a draw
    up to it (any draw when none violates) raises NumericError: a NaN
    margin breaks no bound.
    """
    _check_draws(samples, box)
    b = np.asarray(b, dtype=float)  # None reads as NaN
    if b.shape != (model.n,) or not np.isfinite(b).all():
        raise ValueError(f"b must be {model.n} finite numbers, got {b.tolist()}")
    rng = stream_rng(seed)
    worst = np.inf
    for start in range(0, samples, _DRAW_BLOCK):
        mu = rng.uniform(-box, box, (min(_DRAW_BLOCK, samples - start), model.n))
        with np.errstate(over="ignore"):  # a w past the float range: inf, refused below
            w = batch_value(model, mu)
        margins = w[:, None] - mu - b
        lowest = np.min(margins, axis=1)
        bad = np.flatnonzero(lowest < -1e-9)
        seen = bad[0] + 1 if bad.size else len(w)  # the draws up to the witness, or all
        refuse_non_finite(model.name, w[:seen], mu[:seen])
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
