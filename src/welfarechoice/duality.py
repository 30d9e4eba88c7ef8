"""Numerical conversions among the three equivalent model representations,
at one point (n,) or a stack of points (..., n) in one batch of model calls.

welfare -> regularizer: the convex conjugate V(x) = sup_y { y.x - w(y) },
read from the V a model carries (`WelfareModel.regularizer`: RAM models,
mnl, nested logit and their scale), since V = w*. Any other model is
maximized over the zero-sum hyperplane by `core.newton_ascent`, the damped
Newton method that RAM's solver shares, of at most ASCENT_MAX_ITER steps.
A conjugate or inverse past the float range is a NumericError.

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

from .core import (ASCENT_MAX_ITER, as_probability, as_utility_of, newton_ascent,
                   refuse_non_finite, rowdot)
from .welfare import WelfareModel, batch_gradient, batch_value, model_bounds

INTERIOR_MIN = 1e-6
# Ascent stops at this gradient residual; conjugate values and inversions
# are accepted up to RESIDUAL_TOL.
GRAD_TOL = 1e-8
RESIDUAL_TOL = 1e-6
MAX_GRID_NODES = 10 ** 5


class ConvergenceError(RuntimeError):
    """Ascent failed to reach tolerance; carries the best iterates found,
    `best` (..., n), and their residuals, `residual` (...)."""

    def __init__(self, message: str, best: np.ndarray, residual):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _ascend(model: WelfareModel, x: np.ndarray):
    """Maximize y.x - w(y) over the zero-sum hyperplane from y = 0 by
    `core.newton_ascent` with FD step 1e-6, for targets x (m, n): y (m, n),
    residuals max|x - q| (stopping at GRAD_TOL) and iterations (m,). Every
    coordinate is free, and each step is less its mean (as d.mean() rounds)."""
    return newton_ascent(
        model, x, np.zeros_like(x), lambda y: 1e-6,
        lambda y, grad: np.maximum.reduce(np.abs(grad), axis=1), GRAD_TOL,
        lambda y, grad: (True, grad, 0.0),
        lambda d: d - np.add.reduce(d, axis=1, keepdims=True) / d.shape[1],
        lambda y, d, a: (y + a[:, None] * d, a))


def inverse_from_V(reg, x) -> np.ndarray:
    """q^{-1}(x) = grad V(x) + c 1 at simplex points x (..., n), c making each sum zero."""
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
        g = batch_gradient(reg, x)
        g = g - np.mean(g, axis=-1, keepdims=True)
    return refuse_non_finite(f"grad V of {reg.name}, which leaves the float range,", g, x)


def _interior(model: WelfareModel, x, what: str):
    """(x, V, y): x, refused with a ValueError naming it `what` unless simplex
    points (..., n) of the model's length with entries >= INTERIOR_MIN; the
    V it carries, and if that is None the maximizers y, held to RESIDUAL_TOL."""
    x = as_probability(x)
    if x.shape[-1] != model.n:
        raise ValueError(f"{what} has {x.shape[-1]} entries, "
                         f"not one for each of {model.n} alternatives")
    if np.min(x, initial=1.0) < INTERIOR_MIN:
        raise ValueError(f"{what} must be strictly interior (min entry >= {INTERIOR_MIN:g})")
    if model.regularizer is not None:
        return x, model.regularizer, None
    # an empty stack makes no model call
    y, res, _ = _ascend(model, x.reshape(-1, model.n)) if x.size else (x * 0.0, x[..., 0], 0)
    y, res = y.reshape(x.shape), res.reshape(x.shape[:-1])[()]
    stalled = np.ravel(res > RESIDUAL_TOL)
    if stalled.any():
        first = x.reshape(-1, model.n)[np.argmax(stalled)].tolist()
        raise ConvergenceError(f"ascent for {what} stalled at {stalled.sum()} of {res.size} "
                               f"targets, first at {what}={first} (residual up to "
                               f"{np.max(res):.2e} > {RESIDUAL_TOL:.0e})", y, res)
    return x, None, y


def conjugate_V(model: WelfareModel, x):
    """Convex conjugate V(x) = sup_y { y.x - w(y) } at interior points x of
    shape (..., n): a float for one point, shape (...) for a stack."""
    x, reg, y = _interior(model, x, "x")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
        v = batch_value(reg, x) if y is None else rowdot(y, x) - batch_value(model, y)
    v = refuse_non_finite(f"the conjugate of {model.name}, which leaves the float range,", v, x)
    return float(v) if x.ndim == 1 else v


def invert_choice(model: WelfareModel, x_target) -> np.ndarray:
    """Zero-sum utilities mu with q(mu) = x_target at interior targets of
    shape (..., n), in the same shape. Raises ConvergenceError carrying the
    best iterates when some target's residual stays above RESIDUAL_TOL."""
    x, reg, y = _interior(model, x_target, "target")
    return inverse_from_V(reg, x) if y is None else y


@dataclass(frozen=True)
class AnchorDistribution:
    """n-point noise distribution anchored at z, or a stack of K of them.

    Atom i (probability weights[i]) places `offset` on coordinate i and
    `offset - penalty` elsewhere; t_star is the smallest positive weight.
    The expected maximum of mu + noise equals w(z) at mu = z and is bounded
    above by w everywhere, since the penalty is computed from the model's
    analytic superlinear constants. A stack holds z and weights (K, n) and
    the other fields (K,), and its expected maximum has shape (K,).
    """

    z: np.ndarray
    weights: np.ndarray
    offset: float
    penalty: float
    t_star: float

    def expected_max(self, mu) -> float:
        mu = as_utility_of(mu, self.z.shape[-1])
        # the best rival of i is the largest entry, or the second largest where i holds it
        ranked = np.sort(mu)
        rival = np.where(np.arange(mu.size) == np.argmax(mu), ranked[-2], ranked[-1])
        best = np.maximum(mu, rival - np.expand_dims(self.penalty, -1))
        terms = self.weights * (np.expand_dims(self.offset, -1) + best)
        # summed in index order, which np.sum does not keep for long arrays
        return np.add.accumulate(np.where(self.weights > 0.0, terms, 0.0), axis=-1)[..., -1][()]


def _anchor_stack(model: WelfareModel, anchors: Sequence) -> AnchorDistribution:
    """The distributions of `anchor_family` as one stack, from one gradient
    and one value call."""
    b, _ = model_bounds(model)
    z = np.reshape([as_utility_of(a, model.n) for a in anchors], (-1, model.n))
    q = batch_gradient(model, z)
    # past the float range, or a q with no positive entry (t_star = inf): refused below
    with np.errstate(over="ignore", invalid="ignore"):
        t_star = np.min(np.where(q > 0.0, q, np.inf), axis=1)
        offset = batch_value(model, z) - rowdot(z, q)
        penalty = np.fmax(1.0 + np.ptp(z, axis=1), (offset - np.min(b)) / t_star)
    refuse_non_finite(f"the anchor distribution of {model.name} (offset, penalty, t_star)",
                      np.column_stack([offset, penalty, t_star]), z)
    return AnchorDistribution(z, q, offset, penalty, t_star)


def anchor_family(model: WelfareModel,
                  anchors: Sequence) -> list[AnchorDistribution]:
    """Anchor distributions for each z: weights q(z), offset l(z), penalty M(z).

    M(z) = max{ 1 + max_{ij}(z_i - z_j), (l(z) - min_i b_i) / t*(z) } with
    t*(z) the smallest positive weight. Estimated constants certify no
    bound, so a model without analytic `superlinear_bounds` is refused.
    """
    s = _anchor_stack(model, anchors)
    return [AnchorDistribution(*fields) for fields in zip(
        s.z, s.weights, s.offset.tolist(), s.penalty.tolist(), s.t_star.tolist())]


def semiparametric_sup(model: WelfareModel, anchors: Sequence, mu) -> float:
    """Max over the anchor family of the expected maximum at mu, a lower
    bound on w(mu) that is exact when mu is one of the anchors."""
    if not len(anchors):
        raise ValueError("anchors must be nonempty")
    return float(np.max(_anchor_stack(model, anchors).expected_max(mu)))


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
    c = np.array(list(itertools.product(range(steps + 1), repeat=n - 1)))
    nodes = np.column_stack([c, steps - c.sum(axis=1)]) / steps
    return nodes[(c.sum(axis=1) <= steps) & (np.min(nodes, axis=1) >= margin)]


def tabulated_welfare(model: WelfareModel, spacing: float = 0.02):
    """Round-trip welfare: conjugate values on a simplex grid, then
    w_tab(mu) = max over nodes of mu.x - V(x).

    With a piecewise-linear V on a triangulated grid the continuous argmax
    lands on a node, so the node maximum IS the interpolated round trip.
    Returns (w_tab, nodes, values).
    """
    nodes = simplex_grid(model.n, spacing)
    values = conjugate_V(model, nodes)

    def w_tab(mu):
        mu = as_utility_of(mu, model.n)
        return float(np.max(nodes @ mu - values))

    return w_tab, nodes, values
