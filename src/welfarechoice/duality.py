"""Numerical conversions among the three equivalent model representations.

welfare -> regularizer: the convex conjugate V(x) = sup_y { y.x - w(y) },
computed by concave maximization over the zero-sum hyperplane (translation
invariance collapses one dimension, and the superlinear constants bound the
search radius). One damped Newton ascent does it, with the centred gradient
standing in only where a Newton step is unusable.

welfare -> choice inversion: the same maximizer y* satisfies q(y*) = x, so
the ascent doubles as the inverse choice map on the simplex interior.

welfare -> discrete distribution family: for a model with analytic
superlinear constants, each anchor point z yields an n-point noise
distribution whose expected maximum equals w at z and never
exceeds w elsewhere; the supremum over anchors is a certified lower bound
on w that is exact on the anchor set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import as_utility, finite_diff_jacobian, newton_step
from .welfare import WelfareModel, model_bounds

INTERIOR_MIN = 1e-6
# Ascent stops at this gradient residual; conjugate values and inversions
# are accepted up to RESIDUAL_TOL.
GRAD_TOL = 1e-8
RESIDUAL_TOL = 1e-6
ASCENT_MAX_ITER = 20000
MAX_GRID_NODES = 10 ** 5


class ConvergenceError(RuntimeError):
    """Ascent failed to reach tolerance; carries the best iterate found."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _search_radius(model: WelfareModel, x: np.ndarray) -> float:
    """Bound on coordinates of the conjugate maximizer, with 2x safety.

    Derived from w(0) and the superlinear constants: any optimal zero-sum y
    satisfies y_i <= (w(0) - min_k b_k) / min_i x_i. Estimated constants may
    be loose, hence the safety factor.
    """
    b, _ = model_bounds(model)
    w0 = model.value(np.zeros(model.n))
    k = (w0 - float(np.min(b))) / float(np.min(x))
    return 2.0 * max(k, 1.0)


def _ascend(model: WelfareModel, x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Maximize y.x - w(y) over the zero-sum hyperplane by damped Newton from y = 0.

    The Hessian of w, the central-difference Jacobian of q, annihilates the
    all-ones vector, so `core.newton_step` borders it. A step that is
    unusable there or longer than 1e6 gives way to the centred gradient,
    whose trial length doubles after each accepted gradient step.
    Backtracking accepts a step when the residual max|x - q| at least
    halves, or else by the Armijo test on y.x - w(y); the ascent stops once
    it leaves the search radius. Returns (y, residual, iters).
    """
    radius = _search_radius(model, x)
    y = np.zeros(model.n)
    grad = x - np.asarray(model.gradient(y), dtype=float)
    res = float(np.max(np.abs(grad)))
    val = None  # y.x - w(y), evaluated when a step needs the Armijo test
    step = 1.0

    for it in range(ASCENT_MAX_ITER):
        if res <= GRAD_TOL:
            return y, res, it
        d = newton_step(finite_diff_jacobian(model.gradient, y, 1e-6), grad)
        newton = bool(np.max(np.abs(d)) <= 1e6)  # False for an unusable (NaN) step
        if newton:
            d, a = d - d.mean(), 1.0
        else:
            d, a = grad - grad.mean(), step
        for _ in range(70):
            y_new = y + a * d
            grad_new = x - np.asarray(model.gradient(y_new), dtype=float)
            res_new = float(np.max(np.abs(grad_new)))
            if res_new <= 0.5 * res:
                val_new = None
                break
            if val is None:
                val = float(y @ x - model.value(y))
            val_new = float(y_new @ x - model.value(y_new))
            if np.isfinite(val_new) and val_new >= val + 1e-4 * a * float(grad @ d):
                break
            a *= 0.5
        else:
            return y, res, it
        if not newton:
            step = min(a * 2.0, 1e6)
        y, grad, res, val = y_new, grad_new, res_new, val_new
        if float(np.max(np.abs(y))) > radius + 10.0:
            return y, res, it + 1
    return y, res, ASCENT_MAX_ITER


def _interior_ascent(model: WelfareModel, x: np.ndarray, what: str) -> np.ndarray:
    """`_ascend` at an x of the model's dimension with entries >= INTERIOR_MIN,
    held to RESIDUAL_TOL; `what` names x in the errors."""
    if x.size != model.n:
        raise ValueError("dimension mismatch")
    if np.min(x) < INTERIOR_MIN:
        raise ValueError(
            f"{what} must be strictly interior (min entry >= {INTERIOR_MIN:g})")
    y, res, _ = _ascend(model, x)
    if res > RESIDUAL_TOL:
        raise ConvergenceError(
            f"ascent for {what} stalled at gradient residual {res:.2e} "
            f"(tolerance {RESIDUAL_TOL:.0e})", y, res)
    return y


def conjugate_V(model: WelfareModel, x) -> float:
    """Convex conjugate V(x) = sup_y { y.x - w(y) } at an interior point."""
    x = np.asarray(x, dtype=float)
    y = _interior_ascent(model, x, "x")
    return float(y @ x - model.value(y))


def invert_choice(model: WelfareModel, x_target) -> np.ndarray:
    """Zero-sum utility vector mu with q(mu) = x_target on the interior.

    Raises ConvergenceError carrying the best iterate when the gradient
    residual cannot be brought below RESIDUAL_TOL.
    """
    return _interior_ascent(model, np.asarray(x_target, dtype=float), "target")


@dataclass(frozen=True)
class AnchorDistribution:
    """n-point noise distribution anchored at z.

    Atom i (probability weights[i]) places `offset` on coordinate i and
    `offset - penalty` elsewhere; t_star is the smallest positive weight.
    The expected maximum of mu + noise equals w(z) at mu = z and is bounded
    above by w everywhere, since the penalty is computed from the model's
    analytic superlinear constants.
    """

    z: np.ndarray
    weights: np.ndarray
    offset: float
    penalty: float
    t_star: float

    def expected_max(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        total = 0.0
        for i in range(mu.size):
            if self.weights[i] <= 0.0:
                continue
            others = np.delete(mu, i)
            best = max(float(mu[i]), float(np.max(others)) - self.penalty)
            total += self.weights[i] * (self.offset + best)
        return total


def anchor_family(model: WelfareModel,
                  anchors: Sequence) -> list[AnchorDistribution]:
    """Anchor distributions for each z: weights q(z), offset l(z), penalty M(z).

    M(z) = max{ 1 + max_{ij}(z_i - z_j), (l(z) - min_i b_i) / t*(z) } with
    t*(z) the smallest positive weight. Estimated constants certify no
    bound, so a model without analytic `superlinear_bounds` is refused.
    """
    if model.superlinear_bounds is None:
        raise ValueError(f"{model.name} has no analytic superlinear bounds, "
                         "which anchor distributions need")
    b = np.asarray(model.superlinear_bounds, dtype=float)
    out = []
    for z in anchors:
        z = as_utility(z)
        q = np.asarray(model.gradient(z), dtype=float)
        positive = q[q > 0.0]
        if positive.size == 0:
            raise AssertionError("gradient has no positive entry on the simplex")
        t_star = float(np.min(positive))
        offset = float(model.value(z) - z @ q)
        spread = float(np.max(z) - np.min(z))
        penalty = max(1.0 + spread, (offset - float(np.min(b))) / t_star)
        out.append(AnchorDistribution(z=z, weights=q, offset=offset,
                                      penalty=penalty, t_star=t_star))
    return out


def semiparametric_sup(model: WelfareModel, anchors: Sequence, mu) -> float:
    """Max over the anchor family of the expected maximum at mu.

    A lower bound on w(mu), exact when mu is one of the anchors.
    """
    if not len(anchors):
        raise ValueError("anchors must be nonempty")
    family = anchor_family(model, anchors)
    mu = as_utility(mu)
    return max(dist.expected_max(mu) for dist in family)


def simplex_grid(n: int, spacing: float, margin: float = INTERIOR_MIN) -> np.ndarray:
    """Interior grid nodes of the simplex with the given spacing (n <= 3).

    The spacing must lie in (0, 1), and the grid, s + 1 nodes for n = 2 and
    (s + 1)(s + 2) / 2 for n = 3 with s = round(1 / spacing), may hold at
    most MAX_GRID_NODES before the margin drops the boundary ones.
    """
    if n not in (2, 3):
        raise ValueError("grids are supported for n in {2, 3}")
    if not (np.isfinite(spacing) and 0.0 < spacing < 1.0):
        raise ValueError(f"grid spacing must lie in (0, 1), got {spacing!r}")
    steps = int(round(1.0 / spacing))
    size = steps + 1 if n == 2 else (steps + 1) * (steps + 2) // 2
    if size > MAX_GRID_NODES:
        raise ValueError(f"grid spacing {spacing!r} gives {size} nodes, "
                         f"more than {MAX_GRID_NODES}")
    nodes = [np.array([*c, steps - sum(c)], dtype=float) / steps
             for c in itertools.product(range(steps + 1), repeat=n - 1) if sum(c) <= steps]
    return np.asarray([x for x in nodes if np.min(x) >= margin])


def tabulated_welfare(model: WelfareModel, spacing: float = 0.02):
    """Round-trip welfare: conjugate values on a simplex grid, then
    w_tab(mu) = max over nodes of mu.x - V(x).

    With a piecewise-linear V on a triangulated grid the continuous argmax
    lands on a node, so the node maximum IS the interpolated round trip.
    Returns (w_tab, nodes, values).
    """
    nodes = simplex_grid(model.n, spacing)
    values = np.array([conjugate_V(model, x) for x in nodes])

    def w_tab(mu):
        mu = np.asarray(mu, dtype=float)
        return float(np.max(nodes @ mu - values))

    return w_tab, nodes, values
