"""Representative agent models on the probability simplex.

A `Regularizer` is a strictly convex function V on the simplex; the choice
model solves max_x { mu.x - V(x) } over the simplex. This module provides
the regularizer library (entropy, defined in `welfare` as mnl's V;
quadratic, log-barrier, and the three moment-based families built from
marginal quantiles, marginal standard deviations, and full covariance
matrices), the solver, and KKT residual verification.

Solver layout: the path follows the regularizer's fields, and each path
takes a batch of points, read as utilities relative to each point's
largest. A quadratic V, at any n, has linear KKT systems: a primal
active-set walk, its only path, moves each point from the barycentre
between supports, and all points pending on one support are solved in one
stacked call. A separable V (`choice` set: entropy, log-barrier, MMM and
every MDM) needs one multiplier lam, with maximizer choice(lam - mu) at
the lam of unit sum: in closed form where the regularizer has one
(entropy), else by the batched bisection of `core.bisect_increasing`. The
rest (CMM and user regularizers) goes through `core.newton_ascent`, the
damped Newton method of at most ASCENT_MAX_ITER steps that `duality`'s
conjugate ascent shares.

Every regularizer's `value` and `gradient` broadcast over points of shape
(..., n), as a `WelfareModel` does; a user regularizer written for one
point is lifted with `welfarechoice.pointwise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (NumericError, as_symmetric, as_utilities, bisect_increasing,
                   bordered, keep_last, newton_ascent, normal_cdf,
                   normal_pdf, normal_quantile, positive_scale, rowdot)
from .welfare import (Regularizer, WelfareModel, batch_gradient, batch_value,
                      entropy_regularizer)

ACTIVE_TOL = 1e-9
SOLVER_TOL = 1e-9
_QUANTILE_CLIP = 1e-12
# the fixed tanh-sinh rule on [0, 1] of a custom marginal's tail integral
_TANH_SINH_T = np.arange(-51, 52) / 16.0
_TANH_SINH_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TANH_SINH_T)))
_TANH_SINH_WEIGHTS = (np.pi / 64.0) * np.cosh(_TANH_SINH_T) / np.cosh(
    0.5 * np.pi * np.sinh(_TANH_SINH_T)) ** 2
_EIG_FLOOR = 1e-12


def quadratic_regularizer(A: Sequence[Sequence[float]]) -> Regularizer:
    """V(x) = x' A x for symmetric positive definite A."""
    A = as_symmetric(A, "A")
    n = A.shape[0]
    if n < 2:
        raise ValueError("A must be at least 2 x 2, for n >= 2 alternatives")
    if np.min(np.linalg.eigvalsh(A)) <= 1e-10:
        raise ValueError("A must be positive definite")

    # stacked vector products, so that each row of a batch is computed as a
    # single point is
    def value(x):
        x = np.asarray(x, float)
        return rowdot(np.matmul(x[..., None, :], A)[..., 0, :], x)

    def gradient(x):
        return 2.0 * np.matmul(A, np.asarray(x, float)[..., None])[..., 0]

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=False, name="quadratic",
                       quadratic_matrix=A.copy())


def log_barrier_regularizer(n: int) -> Regularizer:
    """V(x) = -sum_i log x_i on the interior, +inf on the boundary."""
    if n < 2:
        raise ValueError("need at least two alternatives")

    def value(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = -np.sum(np.log(x), axis=-1)
        return np.where(np.min(x, axis=-1) <= 0.0, np.inf, inside)[()]

    def gradient(x):
        return -1.0 / np.maximum(np.asarray(x, float), 1e-300)

    def choice(t):
        return 1.0 / np.maximum(np.asarray(t, float), 1.0)

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True, name="log_barrier", choice=choice)


@dataclass(frozen=True)
class Marginal:
    """Per-alternative noise marginal F, described by the three functions MDM reads.

    `upper_quantile` is x -> F^{-1}(1 - x), `survival` is t -> 1 - F(t) and
    `tail_integral` is x -> the integral of F^{-1} over [1 - x, 1]. All three
    broadcast elementwise over arrays, as `mdm_regularizer` checks. The
    built-in families compute them in closed form, without forming 1 - F or
    1 - x, which would drop the digits of a small x.
    """

    family: str
    upper_quantile: Callable[[np.ndarray], np.ndarray]
    survival: Callable[[np.ndarray], np.ndarray]
    tail_integral: Callable[[np.ndarray], np.ndarray]


def uniform_marginal() -> Marginal:
    return Marginal(family="uniform", upper_quantile=lambda x: 1.0 - x,
                    survival=lambda t: np.clip(1.0 - np.asarray(t, float), 0.0, 1.0),
                    tail_integral=lambda x: x - 0.5 * x * x)


def exponential_marginal(rate: float = 1.0) -> Marginal:
    positive_scale(rate, "rate")

    def tail(x):
        x = np.asarray(x, float)
        return np.where(x <= 0.0, 0.0, (x - x * np.log(np.maximum(x, 1e-300))) / rate)[()]

    def survival(t):
        with np.errstate(over="ignore"):  # rate * t past the float range: exp(-inf) = 0
            return np.exp(-rate * np.maximum(t, 0.0))

    return Marginal(family=f"exponential(rate={rate:g})",
                    upper_quantile=lambda x: -np.log(np.maximum(x, _QUANTILE_CLIP)) / rate,
                    survival=survival, tail_integral=tail)


def logistic_marginal(scale: float = 1.0) -> Marginal:
    positive_scale(scale, "scale")

    def tail(x):
        x = np.clip(x, 0.0, 1.0)
        xl = x * np.log(np.maximum(x, 1e-300))
        cl = (1.0 - x) * np.log(np.maximum(1.0 - x, 1e-300))
        return scale * (-xl - cl)

    def survival(t):
        # exp stays finite; 1 / (1 + e^700) is already below any probability that matters
        with np.errstate(over="ignore"):  # a t / scale past the float range is clipped too
            return 1.0 / (1.0 + np.exp(np.minimum(np.asarray(t, float) / scale, 700.0)))

    def upper_q(x):
        x = np.clip(x, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)
        return scale * (np.log1p(-x) - np.log(x))

    return Marginal(family=f"logistic(scale={scale:g})", upper_quantile=upper_q,
                    survival=survival, tail_integral=tail)


def normal_marginal(sd: float = 1.0) -> Marginal:
    positive_scale(sd, "sd")

    def tail(x):
        x = np.clip(x, 0.0, 1.0)
        # at x = 1 the full integral, the (zero) mean
        return np.where((x <= 0.0) | (x >= 1.0), 0.0,
                        sd * normal_pdf(normal_quantile(1.0 - x)))[()]

    def survival(t):
        with np.errstate(over="ignore"):  # t / sd past the float range: a cdf of 0 or 1
            return normal_cdf(-np.asarray(t, float) / sd)

    return Marginal(family=f"normal(sd={sd:g})",
                    upper_quantile=lambda x: -sd * normal_quantile(
                        np.clip(x, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)),
                    survival=survival, tail_integral=tail)


def custom_marginal(quantile: Callable[[np.ndarray], np.ndarray]) -> Marginal:
    """Marginal from a nondecreasing quantile F^{-1} that broadcasts over arrays.

    The tail integral over [1 - x, 1] is a fixed tanh-sinh rule (Takahasi &
    Mori 1974) over [max(1 - x, clip), 1 - clip]: 103 nodes
    1 / (1 + e^(-pi sinh t)) at t = k/16, |k| <= 51, mapped onto that
    interval, with weights (pi/64) cosh t / cosh^2((pi/2) sinh t). All the
    nodes of all points go to the quantile in one call, and a non-finite
    value there raises NumericError, never a NaN V.
    The survival function solves F^{-1}(1 - x) = t by bisection in the
    log-odds s of x = 1 / (1 + e^-s) from clip to 1 - clip, which resolves
    x and 1 - x to relative precision; t is first clipped to the values there.
    """
    ends = np.array([-1.0, 1.0]) * (np.log1p(-_QUANTILE_CLIP) - np.log(_QUANTILE_CLIP))

    def upper_quantile(x):
        return quantile(1.0 - x)

    def tail(x):
        # lo is clipped above as well, so at x <= 0 the rule has zero width and
        # the quantile never sees t = 1
        lo = np.clip(1.0 - np.asarray(x, float), _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)
        width = (1.0 - _QUANTILE_CLIP) - lo
        f = np.asarray(quantile(lo[..., None] + width[..., None] * _TANH_SINH_NODES), float)
        if not np.all(np.isfinite(f)):
            raise NumericError("quantile of custom marginal is not finite at a quadrature node")
        return (width * rowdot(f, _TANH_SINH_WEIGHTS))[()]

    def upper_at(s):  # the upper quantile at log-odds s
        return upper_quantile(1.0 / (1.0 + np.exp(-s)))

    def survival(t):
        top, bottom = upper_at(ends)
        s = bisect_increasing(lambda s: -upper_at(s), -np.clip(t, bottom, top), *ends)
        return 1.0 / (1.0 + np.exp(-s))

    return Marginal(family="custom", upper_quantile=upper_quantile, survival=survival,
                    tail_integral=tail)


def mdm_regularizer(marginals: Sequence[Marginal]) -> Regularizer:
    """V(x) = -sum_i integral_{1-x_i}^{1} Finv_i(t) dt, separable for any marginals.

    The gradient is -Finv_i(1 - x_i) and the choice map x_i = 1 - F_i(t_i).
    Marginals with quantiles unbounded near 0 or 1 act as boundary
    barriers; every MDM is marked one, a mark no solve reads, as `choice`
    sends it (and its `transforms.scale`) to the separable path. Each upper
    quantile and tail integral must broadcast, each upper quantile must not
    increase and be finite at _QUANTILE_CLIP and 1 - _QUANTILE_CLIP, and
    each mean, -V(e_i) = tail_integral(1), must be finite.
    """
    marginals = list(marginals)
    n = len(marginals)
    if n < 2:
        raise ValueError("need at least two marginals")
    # the clipped ends, where a quantile is largest in size, and a grid between
    grid = np.concatenate([[_QUANTILE_CLIP], np.linspace(0.01, 0.99, 33), [1.0 - _QUANTILE_CLIP]])

    def on_grid(what, f, family):
        try:
            return np.asarray(f(grid), dtype=float).reshape(grid.shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} of {family} marginal does not broadcast "
                             f"over arrays: {exc}") from exc

    for m in marginals:
        with np.errstate(over="ignore"):  # a huge scale overflows to inf, refused below
            quantiles = on_grid("quantile", m.upper_quantile, m.family)
            on_grid("tail integral", m.tail_integral, m.family)
            mean = m.tail_integral(1.0)
        if not (np.all(np.isfinite(quantiles)) and np.isfinite(mean)):
            raise ValueError(f"{m.family} marginal must have finite quantiles and mean")
        if np.any(np.diff(quantiles) > 1e-10):
            raise ValueError(f"quantile of {m.family} marginal is decreasing on a grid")

    def value(x):
        x = np.asarray(x, float)
        # summed in coordinate order, as for one point
        return -np.asarray(sum(m.tail_integral(x[..., i]) for i, m in enumerate(marginals)),
                           dtype=float)[()]

    def gradient(x):
        x = np.asarray(x, float)
        return -np.stack([m.upper_quantile(x[..., i]) for i, m in enumerate(marginals)],
                         axis=-1)

    def choice(t):
        t = np.asarray(t, float)
        return np.stack([m.survival(t[..., i]) for i, m in enumerate(marginals)], axis=-1)

    return Regularizer(n=n, value=value, gradient=gradient, boundary_barrier=True,
                       name="mdm", choice=choice)


def mmm_regularizer(sigma: Sequence[float]) -> Regularizer:
    """V(x) = -sum_i sigma_i sqrt(x_i (1 - x_i)), strictly convex as every sigma_i > 0."""
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore"):
        square = sigma ** 2
    if sigma.ndim != 1 or sigma.size < 2 or not np.all((sigma > 0) & np.isfinite(square)):
        raise ValueError("sigma must list n >= 2 entries, each positive with a finite square")
    n = sigma.size

    def value(x):
        x = np.asarray(x, float)
        return -np.sum(sigma * np.sqrt(np.maximum(x * (1.0 - x), 0.0)), axis=-1)

    def gradient(x):
        x = np.asarray(x, float)
        root = np.sqrt(np.maximum(x * (1.0 - x), 1e-300))
        return -sigma * (1.0 - 2.0 * x) / (2.0 * root)

    def choice(t):
        # 1 - t/r = sigma^2 / (r (r + t)) keeps the t > 0 branch free of
        # cancellation; where r (r + t) overflows, it is the limit 0
        t = np.asarray(t, float)
        r = np.hypot(t, sigma)
        with np.errstate(over="ignore"):
            return np.where(t > 0.0, 0.5 * square / (r * (r + np.abs(t))), 0.5 * (1.0 - t / r))

    return Regularizer(n=n, value=value, gradient=gradient, boundary_barrier=True,
                       name="mmm", choice=choice)


def cmm_regularizer(cov: Sequence[Sequence[float]]) -> Regularizer:
    """V(x) = -trace((Sigma^{1/2} S(x) Sigma^{1/2})^{1/2}), S(x) = Diag(x) - x x'.

    S(x) always annihilates the all-ones vector, so the inner matrix is
    singular by construction; both the value and the directional derivative
    are taken on the range, above an eigenvalue cutoff of 1e-12. The gradient
    component formula is dV/dx_i = -(G_ii - 2 (G x)_i) / 2 with
    G = Sigma^{1/2} M^{+/2} Sigma^{1/2}; it is valid along simplex tangent
    directions (the relative interior is the safe domain).
    """
    cov = as_symmetric(cov, "covariance")
    if cov.shape[0] < 2:
        raise ValueError("covariance must be at least 2 x 2, for n >= 2 alternatives")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.min(eigvals) <= 1e-10:
        raise ValueError("covariance must be positive definite")
    sqrt_cov = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    n = cov.shape[0]

    diag = np.arange(n)

    def _inner(x):  # a stack of matrices for a batch, one stacked eigh
        s = np.zeros(x.shape + (n,))
        s[..., diag, diag] = x
        s -= x[..., :, None] * x[..., None, :]
        return sqrt_cov @ s @ sqrt_cov

    def value(x):
        ev = np.linalg.eigvalsh(_inner(np.asarray(x, float)))
        return -np.sum(np.sqrt(np.where(ev > _EIG_FLOOR, ev, 0.0)), axis=-1)

    def gradient(x):
        x = np.asarray(x, float)
        ev, u = np.linalg.eigh(_inner(x))
        inv_root = np.where(ev > _EIG_FLOOR, 1.0 / np.sqrt(np.maximum(ev, _EIG_FLOOR)), 0.0)
        g_mat = sqrt_cov @ ((u * inv_root[..., None, :]) @ np.swapaxes(u, -1, -2)) @ sqrt_cov
        return -0.5 * (g_mat[..., diag, diag] - 2.0 * np.matmul(g_mat, x[..., None])[..., 0])

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True, name="cmm")


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    w_value: float
    kkt_residual: float
    iterations: int
    converged: bool


def verify_kkt(reg: Regularizer, mu: np.ndarray, x: np.ndarray):
    """Max KKT violation of x for max { mu.x - V(x) } on the simplex.

    The equality multiplier is estimated as the mean of mu_i - dV/dx_i over
    coordinates with x_i > ACTIVE_TOL; the residual is the worst of active
    stationarity |mu_i - dV_i - lam|, the positive part of the inactive
    condition, and primal feasibility; inf where no coordinate is active or
    that is NaN. Points of shape (..., n) give residuals of shape (...) from
    one gradient call; one point, a float.
    """
    mu = np.asarray(mu, float)
    x = np.asarray(x, float)
    g = mu - batch_gradient(reg, np.maximum(x, 0.0))
    res = _kkt_residual(g.reshape(-1, reg.n), x.reshape(-1, reg.n))
    return float(res[0]) if x.ndim == 1 else res.reshape(x.shape[:-1])


def _masked_mean(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of each row of g over its masked entries (NaN for none)."""
    with np.errstate(invalid="ignore"):
        return np.where(mask, g, 0.0).sum(axis=1) / mask.sum(axis=1)


def _kkt_residual(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The residual of `verify_kkt` per row, from g = mu - grad V(x), both
    (m, n); inf for a row with no active coordinate or a NaN residual."""
    active = x > ACTIVE_TOL
    dev = g - _masked_mean(g, active)[:, None]
    res = np.max(np.where(active, np.abs(dev), -np.inf), axis=1)
    res = np.maximum(res, np.max(np.where(active, -np.inf, np.maximum(dev, 0.0)), axis=1))
    res = np.maximum(res, np.abs(np.sum(x, axis=1) - 1.0))
    res = np.maximum(res, -np.min(x, axis=1))  # res >= 0 here
    return np.where(np.any(active, axis=1) & ~np.isnan(res), res, np.inf)


def _iterative_solve(reg: Regularizer, mu: np.ndarray):
    """Damped active-set Newton ascent of mu.x - V(x) from the barycentre by
    `core.newton_ascent`, for a batch mu (m, n) of CMM or user regularizers:
    x (m, n), iterations and converged (KKT residual <= SOLVER_TOL).

    The Newton step on the support closes the unit-sum gap. A barrier V
    keeps every coordinate, going at most 0.9 of the way to the boundary
    (FD steps min(1e-7, 0.4 x_i) stay inside); with any other V a coordinate
    that reaches 0 is set to exactly 0 and leaves the support, and once a
    point is stationary on its support, the worst KKT violator joins it.
    """
    m, n = mu.shape
    fraction = 0.9 if reg.boundary_barrier else 1.0

    def tangent(x, g):  # the support, g centred on it, and the unit-sum gap
        s = x > 0.0
        dev = g - _masked_mean(g, s)[:, None]
        gap = np.where(s, -np.inf, dev)
        join = ((np.max(np.where(s, np.abs(dev), 0.0), axis=1) <= SOLVER_TOL)
                & (np.max(gap, axis=1) > SOLVER_TOL))
        s[join, np.argmax(gap[join], axis=1)] = True
        dev = g - _masked_mean(g, s)[:, None]
        return s, np.where(s, dev, 0.0), 1.0 - np.sum(x, axis=1)

    def land(x, d, a):
        # the length along d at which each coordinate that d shrinks reaches 0
        reach = np.where(d < 0.0, x / np.maximum(-d, 1e-300), np.inf)
        a = np.minimum(a, fraction * np.min(reach, axis=1))
        return np.where(reach <= a[:, None], 0.0, np.maximum(x + a[:, None] * d, 0.0)), a

    x, res, iterations = newton_ascent(
        reg, mu, np.full((m, n), 1.0 / n),
        (lambda x: np.minimum(1e-7, 0.4 * x)) if reg.boundary_barrier else (lambda x: 1e-7),
        lambda x, g: _kkt_residual(g, x), SOLVER_TOL, tangent, lambda d: d, land)
    return x, iterations, res <= SOLVER_TOL


def _quadratic_argmax(reg: Regularizer, mu: np.ndarray):
    """Primal active-set walk of the simplex QP for a batch; exact for strictly convex V.

    From the barycentre on the full support, each step solves the KKT
    system of a point's support. A solution nonnegative to 1e-12 is taken,
    clipped at 0, and the outside coordinate whose gradient exceeds the
    multiplier most (by over 1e-10) joins; with none, the point is done.
    Toward an infeasible one, x moves until the first support coordinate
    reaches 0, which leaves (the ratio test). `iterations` counts steps; a
    point still pending after 4n steps, or off the unit sum by more than
    SOLVER_TOL, is unconverged.
    """
    a_mat = reg.quadratic_matrix
    m, n = mu.shape
    kkt = bordered(2.0 * a_mat)  # each support's system is a slice of it
    x = np.full((m, n), 1.0 / n)
    support = np.ones((m, n + 1), dtype=bool)  # column n, the unit-sum row, stays set
    iterations = np.zeros(m, dtype=int)  # 0 while a point is pending
    rhs = np.concatenate([mu, np.ones((m, 1))], axis=1)  # column n: the unit sum
    # each step adds or drops one coordinate, and no walk measured took more
    # than 2n steps; a point still pending after 4n reports unconverged
    cap = 4 * n
    for step in range(1, cap + 1):
        pending = np.flatnonzero(iterations == 0)
        if pending.size == 0:
            break
        # the pending points sorted by support, cut where the support changes
        packed = np.packbits(support[pending], axis=1)
        order = np.lexsort(packed.T)
        packed = packed[order]
        cuts = np.flatnonzero(np.any(packed[1:] != packed[:-1], axis=1)) + 1
        for rows in np.split(pending[order], cuts):
            idx = np.flatnonzero(support[rows[0]])
            mu_p = rhs[rows]
            sol = np.linalg.solve(kkt[idx[:, None], idx], mu_p[:, idx, None])[..., 0]
            y = np.zeros((rows.size, n))
            y[:, idx[:-1]] = sol[:, :-1]
            walk = y.min(axis=1) < -1e-12
            if walk.any():
                at, rows = rows[walk], rows[~walk]
                d = y[walk] - x[at]
                reach = np.where(d < 0.0, x[at] / np.maximum(-d, 1e-300), np.inf)
                first = np.argmin(reach, axis=1)
                x[at] = np.maximum(x[at] + np.min(reach, axis=1)[:, None] * d, 0.0)
                x[at, first], support[at, first] = 0.0, False
                mu_p, sol, y = mu_p[~walk], sol[~walk], y[~walk]
            x[rows] = y = np.maximum(y, 0.0)
            gap = mu_p[:, :n] - 2.0 * np.matmul(a_mat, y[..., None])[..., 0] - sol[:, -1:]
            gap[:, idx[:-1]] = -np.inf
            join = gap.max(axis=1) > 1e-10
            support[rows[join], np.argmax(gap[join], axis=1)] = True
            iterations[rows[~join]] = step
    converged = (iterations > 0) & (abs(x.sum(axis=1) - 1.0) <= SOLVER_TOL)
    return x, np.where(iterations > 0, iterations, cap), converged


def _separable_argmax(reg: Regularizer, mu: np.ndarray):
    """Maximizers choice(lam - mu) of a batch, lam in closed form or by bisection.

    The sum of choice(lam - mu) decreases in lam, and the gradient at the
    barycentre brackets its unit crossing exactly: at lam = min_i(mu_i -
    dV_i(1/n)) every coordinate is at least 1/n, at the max at most 1/n.
    The bracket is widened by a relative 1e-6 against rounding at its ends.
    Near a vertex, 1 - x_k of the largest coordinate keeps few digits, and
    grad V at the rounded x_k implies a slightly different lam; lam is
    re-read there and the other coordinates recomputed, wherever that keeps
    the unit sum, so that x is consistent with grad V. A point converges
    when its coordinates sum to 1 within SOLVER_TOL.
    """
    m = mu.shape[0]
    steps = 0

    def minus_total(lam):
        nonlocal steps
        steps += 1
        return -reg.choice(lam[..., None] - mu).sum(axis=-1)

    if reg.multiplier is not None:
        lam = reg.multiplier(mu)
    else:
        ends = mu - reg.gradient(np.full(reg.n, 1.0 / reg.n))
        lo, hi = np.min(ends, axis=-1), np.max(ends, axis=-1)
        pad = 1e-6 * (1.0 + np.abs(lo) + np.abs(hi))
        lam = bisect_increasing(minus_total, -1.0, lo - pad, hi + pad)
    x = reg.choice(lam[:, None] - mu)
    rows, k = np.arange(m), np.argmax(x, axis=-1)
    snapped = reg.choice((mu[rows, k] - reg.gradient(x)[rows, k])[:, None] - mu)
    snapped[rows, k] = x[rows, k]
    keep = np.abs(np.sum(snapped, axis=-1) - 1.0) <= SOLVER_TOL
    x = np.where(keep[:, None], snapped, x)
    # a non-finite coordinate fails the sum test too
    converged = np.abs(np.sum(x, axis=-1) - 1.0) <= SOLVER_TOL
    return x, np.full(m, steps), converged


def _argmax(reg: Regularizer, mu: np.ndarray):
    """Maximizers of a batch mu of shape (m, n): x (m, n), iterations, converged,
    by the path the regularizer's fields pick, a quadratic V's at any n.

    x depends only on utility differences, so every path sees utilities
    relative to each point's largest, where huge ones do not cancel; a point
    whose differences overflow is a ValueError. Converged x are finite: each
    path's convergence test fails a row that is not.
    """
    with np.errstate(over="ignore"):
        shifted = mu - mu.max(axis=1, keepdims=True)
    finite = np.all(np.isfinite(shifted), axis=1)
    if not finite.all():
        raise ValueError(f"utility differences overflow at mu={mu[np.argmin(finite)]}")
    solve = (_quadratic_argmax if reg.quadratic_matrix is not None
             else _separable_argmax if reg.choice is not None
             else _iterative_solve)  # the rest: CMM and user regularizers
    return solve(reg, shifted)


# the one kept solve of `solve_ram` and `ram_welfare`; `_argmax` is looked up at each call
_solve = keep_last(lambda reg, flat: _argmax(reg, flat))


def solve_ram(reg: Regularizer, mu) -> SolveResult:
    """Maximize mu.x - V(x) over the simplex, at one point or a batch.

    The path follows the regularizer's structure: for a quadratic V, at any
    n, a primal active-set walk whose `iterations` count its steps (a point
    still pending after 4n steps reports 4n, unconverged); for a
    separable V (`choice` set: entropy, log-barrier, MMM and every MDM),
    the one multiplier, in closed form or by bisection; otherwise (CMM and
    user regularizers) a damped active-set Newton ascent that steps the
    whole batch together, at most ASCENT_MAX_ITER (50) steps a point: one
    that stalls reports the steps it took (50 when the budget ran out),
    unconverged. Differences of mu that overflow are a ValueError. V's
    `value` and `gradient` must broadcast over points of shape (..., n); a
    user regularizer written for one point is lifted with `pointwise`.

    A 1-D `mu` gives scalar fields. A batch of shape (..., n) is solved in
    one call and gives `x_star` of shape (..., n) and the other fields of
    shape (...), each entry equal to the solve of its own point; for a
    separable V, `iterations` counts the bisection steps of the batch. The
    last solve is kept once, for `ram_welfare` too; each call gets its own arrays.
    """
    flat = as_utilities(mu, reg.n).reshape(-1, reg.n)
    x, iterations, converged = (a.copy() for a in _solve(reg, flat))  # kept arrays stay unshared
    w = rowdot(flat, x) - batch_value(reg, x)  # mu.x - V(x), in one call of V
    kkt = verify_kkt(reg, flat, x)
    if np.ndim(mu) == 1:
        return SolveResult(x[0], float(w[0]), float(kkt[0]), int(iterations[0]),
                           bool(converged[0]))
    shape = np.shape(mu)[:-1]
    return SolveResult(x.reshape(np.shape(mu)), w.reshape(shape), kkt.reshape(shape),
                       iterations.reshape(shape), converged.reshape(shape))


def _refuse_below_bound(reg: Regularizer, b: np.ndarray, mu: np.ndarray, x: np.ndarray,
                        v: np.ndarray, w: np.ndarray) -> None:
    """Refuse with a NumericError the first w = mu.x - V(x) (m,) below its lower
    bound max_i(mu_i + b_i) by more than forming both sides explains: n + 2
    roundings (the dot product's n, the difference, the sum with b), each
    counted at eps of max_i(|mu_i| + |b_i|) + |V(x)|, which bounds every
    magnitude they touch, and the unit-sum defect of x, which moves w by
    (1 - sum x) lam to first order, lam = mu_k - dV_k(x) at x's largest
    coordinate k, the multiplier of the unit sum."""
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past the float range refuses
        lower = (mu + b).max(axis=1)
        short = lower - w
        if not short.max(initial=0.0) > 0.0:  # the common case, settled in four operations
            return
        short -= (reg.n + 2) * np.finfo(float).eps * ((abs(mu) + abs(b)).max(axis=1) + abs(v))
    rows = np.flatnonzero(short > 0.0)  # only these few pay for a gradient of V
    if not rows.size:
        return
    k = np.argmax(x[rows], axis=1)
    lam = mu[rows, k] - batch_gradient(reg, x[rows])[np.arange(rows.size), k]
    below = short[rows] > (1.0 - x[rows].sum(axis=1)) * lam
    if below.any():
        r = rows[np.argmax(below)]
        raise NumericError(f"{reg.name} gave w = {w[r]} below its bound "
                           f"max_i(mu_i + b_i) = {lower[r]} at mu={mu[r].tolist()}")


def ram_welfare(reg: Regularizer) -> WelfareModel:
    """Wrap a regularizer as a WelfareModel (w from the solve, q = argmax).

    `value` and `gradient` solve their points in one call, kept once with
    `solve_ram`'s: w, q and its record at the same points cost one solve.
    An unconverged point is a NumericError. As x = e_i gives w(mu) >= mu_i -
    V(e_i), the superlinear bounds are -V(e_i) when V is finite at every
    vertex, else None (a barrier such as the log-barrier); a w below them
    beyond rounding is a NumericError too. The model keeps `reg` as its
    `regularizer`, whose V and grad V `duality` reads.
    """
    def solve(flat):
        x, _, converged = _solve(reg, flat)
        if not np.all(converged):
            bad = flat[int(np.argmin(converged))]
            raise NumericError(f"solver did not converge for {reg.name} at mu={bad}")
        return x

    def value(mu):
        flat = as_utilities(mu, reg.n).reshape(-1, reg.n)
        x = solve(flat)
        v = batch_value(reg, x)
        w = rowdot(flat, x) - v
        if bounds is not None:
            _refuse_below_bound(reg, bounds, flat, x, v, w)
        return float(w[0]) if np.ndim(mu) == 1 else w.reshape(np.shape(mu)[:-1])

    def gradient(mu):
        return solve(as_utilities(mu, reg.n).reshape(-1, reg.n)).reshape(np.shape(mu)).copy()

    vertices = batch_value(reg, np.eye(reg.n))
    bounds = -vertices if np.all(np.isfinite(vertices)) else None
    return WelfareModel(n=reg.n, value=value, gradient=gradient,
                        superlinear_bounds=bounds, name=f"ram[{reg.name}]",
                        regularizer=reg)
