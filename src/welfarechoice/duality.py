"""Numerical conversions among the three equivalent model representations.

welfare -> regularizer: the convex conjugate V(x) = sup_y { y.x - w(y) },
read from the V a RAM model carries (`WelfareModel.regularizer`), since
V = w*. Any other model is maximized over the zero-sum hyperplane by one
damped Newton ascent of at most ASCENT_MAX_ITER steps, with the centred
gradient standing in only where a Newton step is unusable.

welfare -> choice inversion: the same maximizer y* satisfies q(y*) = x, so
the ascent doubles as the inverse choice map on the simplex interior; from
V it is q^{-1}(x) = grad V(x) + c 1, with c making the sum zero.

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

from .core import as_probability, as_utility_of, finite_diff_jacobian, newton_step
from .welfare import WelfareModel, _checked, model_bounds

INTERIOR_MIN = 1e-6
# Ascent stops at this gradient residual; conjugate values and inversions
# are accepted up to RESIDUAL_TOL.
GRAD_TOL = 1e-8
RESIDUAL_TOL = 1e-6
ASCENT_MAX_ITER = 50
MAX_GRID_NODES = 10 ** 5


class ConvergenceError(RuntimeError):
    """Ascent failed to reach tolerance; carries the best iterate found."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _ascend(model: WelfareModel, x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Maximize y.x - w(y) over the zero-sum hyperplane by damped Newton from y = 0.

    The Hessian of w, the central-difference Jacobian of q, annihilates the
    all-ones vector, so `core.newton_step` borders it. A step that is
    unusable there or longer than 1e6 gives way to the centred gradient,
    whose trial length doubles after each accepted gradient step.
    Backtracking accepts a step when the residual max|x - q| at least
    halves, or else by the Armijo test on y.x - w(y); the ascent stops when
    no trial length is accepted or after ASCENT_MAX_ITER steps. Returns
    (y, residual, iters).
    """
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
    return y, res, ASCENT_MAX_ITER


def _interior(model: WelfareModel, x, what: str):
    """(x, V): x refused with a ValueError naming it `what` unless a simplex
    point of the model's length with entries >= INTERIOR_MIN, and the
    model's regularizer when strictly convex, else None. The ascent's first
    solve refuses any other V (`ram.DegenerateRegularizerError`)."""
    x = as_probability(x)
    if x.size != model.n:
        raise ValueError(f"{what} has {x.size} entries, "
                         f"not one for each of {model.n} alternatives")
    if np.min(x) < INTERIOR_MIN:
        raise ValueError(
            f"{what} must be strictly interior (min entry >= {INTERIOR_MIN:g})")
    reg = model.regularizer
    return x, reg if reg is not None and reg.strictly_convex else None


def _interior_ascent(model: WelfareModel, x: np.ndarray, what: str) -> np.ndarray:
    """`_ascend` at a validated x, held to RESIDUAL_TOL."""
    y, res, _ = _ascend(model, x)
    if res > RESIDUAL_TOL:
        raise ConvergenceError(
            f"ascent for {what} stalled at gradient residual {res:.2e} "
            f"(tolerance {RESIDUAL_TOL:.0e})", y, res)
    return y


def conjugate_V(model: WelfareModel, x) -> float:
    """Convex conjugate V(x) = sup_y { y.x - w(y) } at an interior point."""
    x, reg = _interior(model, x, "x")
    if reg is not None:
        return float(_checked(reg, "value", x, ()))
    y = _interior_ascent(model, x, "x")
    return float(y @ x - model.value(y))


def invert_choice(model: WelfareModel, x_target) -> np.ndarray:
    """Zero-sum utility vector mu with q(mu) = x_target on the interior.

    Raises ConvergenceError carrying the best iterate when the ascent
    cannot bring the gradient residual below RESIDUAL_TOL.
    """
    x, reg = _interior(model, x_target, "target")
    if reg is not None:
        g = _checked(reg, "gradient", x, x.shape)
        return g - np.mean(g)
    return _interior_ascent(model, x, "target")


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
        mu = as_utility_of(mu, self.z.size)
        # the best rival of i is the largest entry, or the second largest
        # where i holds the largest
        ranked = np.sort(mu)
        rival = np.where(np.arange(mu.size) == np.argmax(mu), ranked[-2], ranked[-1])
        best = np.maximum(mu, rival - self.penalty)
        terms = (self.weights * (self.offset + best))[self.weights > 0.0]
        # summed from 0 in index order, which np.sum does not keep for long arrays
        return float(np.add.accumulate(np.append(0.0, terms))[-1])


def anchor_family(model: WelfareModel,
                  anchors: Sequence) -> list[AnchorDistribution]:
    """Anchor distributions for each z: weights q(z), offset l(z), penalty M(z).

    M(z) = max{ 1 + max_{ij}(z_i - z_j), (l(z) - min_i b_i) / t*(z) } with
    t*(z) the smallest positive weight. Estimated constants certify no
    bound, so a model without analytic `superlinear_bounds` is refused.
    """
    b, _ = model_bounds(model)
    out = []
    for z in anchors:
        z = as_utility_of(z, model.n)
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
    mu = as_utility_of(mu, model.n)
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
        mu = as_utility_of(mu, model.n)
        return float(np.max(nodes @ mu - values))

    return w_tab, nodes, values
