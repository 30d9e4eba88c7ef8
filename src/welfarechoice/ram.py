"""Representative agent models on the probability simplex.

A `Regularizer` is a convex function V on the simplex; the induced choice
model solves max_x { mu.x - V(x) } over the simplex. This module provides
the regularizer library (entropy, quadratic, log-barrier, and the three
moment-based families built from marginal quantiles, marginal standard
deviations, and full covariance matrices), the solver, and KKT residual
verification.

Solver layout: the path follows the regularizer's fields, and each path
takes a batch of points. A quadratic V (n <= 15) has linear KKT systems:
active sets are enumerated largest first, each support's bordered KKT
matrix is built when a solve first reaches it and kept on the regularizer,
and all points pending at a support are solved in one stacked call. A
separable V (`choice` set: entropy, log-barrier, MMM and every MDM) needs
one multiplier lam, with maximizer choice(lam - mu) at the lam of unit
sum: in closed form where the regularizer has one (entropy), else by the
batched bisection of `core.bisect_increasing`. The rest (CMM, quadratics
with n > 15, user regularizers) goes through one damped active-set Newton
ascent that steps all pending points together, whose Hessian of V is the
central-difference Jacobian of grad V from `core.finite_diff_jacobian`,
the package's one finite-difference layer: one stencil call of grad V
for the whole batch.

Every regularizer's `value` and `gradient` broadcast over points of shape
(..., n), as a `WelfareModel` does; a user regularizer written for one
point is lifted with `welfarechoice.pointwise`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (NumericError, as_symmetric, as_utility, bisect_increasing,
                   bordered, finite_diff_jacobian, integrate_1d, newton_step,
                   normal_cdf, normal_pdf, normal_quantile, positive_scale, rowdot)
from .welfare import WelfareModel, _checked, logsumexp

ACTIVE_TOL = 1e-9
SOLVER_TOL = 1e-9
SOLVER_MAX_ITER = 100_000
_QUANTILE_CLIP = 1e-12
_EIG_FLOOR = 1e-12


class DegenerateRegularizerError(ValueError):
    """The regularizer is not essentially strictly convex; argmax may be non-unique."""


@dataclass(frozen=True)
class Regularizer:
    """Convex regularizer V on the simplex with interior gradient.

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
    strictly_convex: bool = True
    name: str = "regularizer"
    quadratic_matrix: Optional[np.ndarray] = None
    choice: Optional[Callable[[np.ndarray], np.ndarray]] = None
    multiplier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # bordered KKT systems of the supports a quadratic solve has reached
    _supports: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def entropy_regularizer(eta: float, n: int) -> Regularizer:
    """V(x) = eta * sum_i x_i log x_i with the 0 log 0 = 0 convention."""
    positive_scale(eta, "eta")

    def value(x):
        x = np.asarray(x, float)
        return eta * np.sum(np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0),
                            axis=-1)

    def gradient(x):
        return eta * (1.0 + np.log(np.maximum(np.asarray(x, float), 1e-300)))

    def choice(t):
        return np.exp(np.minimum(-np.asarray(t, float) / eta - 1.0, 0.0))

    def multiplier(mu):
        return eta * (logsumexp(mu / eta) - 1.0)

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True,
                       name=f"entropy(eta={eta:g})", choice=choice,
                       multiplier=multiplier)


def quadratic_regularizer(A: Sequence[Sequence[float]]) -> Regularizer:
    """V(x) = x' A x for symmetric positive definite A."""
    A = as_symmetric(A, "A")
    if np.min(np.linalg.eigvalsh(A)) <= 1e-10:
        raise ValueError("A must be positive definite")
    n = A.shape[0]

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

    `upper_quantile` is x -> F^{-1}(1 - x), `survival` is t -> 1 - F(t)
    (both broadcast over arrays) and `tail_integral` is x -> the integral of
    F^{-1} over [1 - x, 1]. The built-in families compute them without
    forming 1 - F or 1 - x, which would drop the digits of a small x.
    `bounded` marks quantiles bounded on (0, 1).
    """

    family: str
    upper_quantile: Callable[[np.ndarray], np.ndarray]
    survival: Callable[[np.ndarray], np.ndarray]
    tail_integral: Callable[[float], float]
    bounded: bool = False


def uniform_marginal() -> Marginal:
    return Marginal(family="uniform", upper_quantile=lambda x: 1.0 - x,
                    survival=lambda t: np.clip(1.0 - np.asarray(t, float), 0.0, 1.0),
                    tail_integral=lambda x: x - 0.5 * x * x, bounded=True)


def exponential_marginal(rate: float = 1.0) -> Marginal:
    positive_scale(rate, "rate")

    def tail(x):
        if x <= 0.0:
            return 0.0
        return (x - x * np.log(max(x, 1e-300))) / rate

    return Marginal(family=f"exponential(rate={rate:g})",
                    upper_quantile=lambda x: -np.log(np.maximum(x, _QUANTILE_CLIP)) / rate,
                    survival=lambda t: np.exp(-rate * np.maximum(t, 0.0)),
                    tail_integral=tail)


def logistic_marginal(scale: float = 1.0) -> Marginal:
    positive_scale(scale, "scale")

    def tail(x):
        x = min(max(x, 0.0), 1.0)
        xl = x * np.log(max(x, 1e-300))
        cl = (1.0 - x) * np.log(max(1.0 - x, 1e-300))
        return scale * (-xl - cl)

    def survival(t):
        # exp stays finite; 1 / (1 + e^700) is already below any probability that matters
        return 1.0 / (1.0 + np.exp(np.minimum(np.asarray(t, float) / scale, 700.0)))

    def upper_q(x):
        x = np.clip(x, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)
        return scale * (np.log1p(-x) - np.log(x))

    return Marginal(family=f"logistic(scale={scale:g})", upper_quantile=upper_q,
                    survival=survival, tail_integral=tail)


def normal_marginal(sd: float = 1.0) -> Marginal:
    positive_scale(sd, "sd")

    def tail(x):
        x = min(max(x, 0.0), 1.0)
        if x <= 0.0 or x >= 1.0:
            return 0.0  # at x = 1 the full integral, the (zero) mean
        return sd * float(normal_pdf(normal_quantile(1.0 - x)))

    return Marginal(family=f"normal(sd={sd:g})",
                    upper_quantile=lambda x: -sd * normal_quantile(
                        np.clip(x, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)),
                    survival=lambda t: normal_cdf(-np.asarray(t, float) / sd),
                    tail_integral=tail)


def custom_marginal(quantile: Callable[[np.ndarray], np.ndarray],
                    bounded: bool = False) -> Marginal:
    """Marginal from a nondecreasing quantile F^{-1} that broadcasts over arrays.

    The tail integral is quadrature of the quantile between clipped limits.
    The survival function solves F^{-1}(1 - x) = t by bisection in the
    log-odds s of x = 1 / (1 + e^-s) from clip to 1 - clip, which resolves
    x and 1 - x to relative precision; t is first clipped to the values there.
    """
    ends = np.array([-1.0, 1.0]) * (np.log1p(-_QUANTILE_CLIP) - np.log(_QUANTILE_CLIP))

    def upper_quantile(x):
        return quantile(1.0 - x)

    def tail(x):
        lo, hi = max(1.0 - x, _QUANTILE_CLIP), 1.0 - _QUANTILE_CLIP
        return integrate_1d(quantile, lo, hi) if lo < hi else 0.0

    def upper_at(s):  # the upper quantile at log-odds s
        return upper_quantile(1.0 / (1.0 + np.exp(-s)))

    def survival(t):
        top, bottom = upper_at(ends)
        s = bisect_increasing(lambda s: -upper_at(s), -np.clip(t, bottom, top), *ends)
        return 1.0 / (1.0 + np.exp(-s))

    return Marginal(family="custom", upper_quantile=upper_quantile, survival=survival,
                    tail_integral=tail, bounded=bounded)


def mdm_regularizer(marginals: Sequence[Marginal]) -> Regularizer:
    """V(x) = -sum_i integral_{1-x_i}^{1} Finv_i(t) dt, separable for any marginals.

    The gradient is -Finv_i(1 - x_i) and the choice map x_i = 1 - F_i(t_i).
    Marginals with quantiles unbounded near 0 or 1 act as boundary
    barriers. Each upper quantile must broadcast and not increase, and each
    mean, -V(e_i) = tail_integral(1), must be finite.
    """
    marginals = list(marginals)
    n = len(marginals)
    if n < 2:
        raise ValueError("need at least two marginals")
    grid = np.linspace(0.01, 0.99, 33)
    for m in marginals:
        try:
            upper = np.asarray(m.upper_quantile(grid), dtype=float).reshape(grid.shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"quantile of {m.family} marginal does not broadcast "
                             f"over arrays: {exc}") from exc
        if np.any(np.diff(upper) > 1e-10):
            raise ValueError(f"quantile of {m.family} marginal is decreasing on a grid")
        if not np.isfinite(m.tail_integral(1.0)):
            raise ValueError(f"{m.family} marginal must have a finite mean")

    tails = [np.frompyfunc(m.tail_integral, 1, 1) for m in marginals]  # elementwise

    def value(x):
        x = np.asarray(x, float)
        # summed in coordinate order, as for one point
        return -np.asarray(sum(t(x[..., i]) for i, t in enumerate(tails)), dtype=float)[()]

    def gradient(x):
        x = np.asarray(x, float)
        return -np.stack([m.upper_quantile(x[..., i]) for i, m in enumerate(marginals)],
                         axis=-1)

    def choice(t):
        t = np.asarray(t, float)
        return np.stack([m.survival(t[..., i]) for i, m in enumerate(marginals)], axis=-1)

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=not all(m.bounded for m in marginals),
                       name="mdm", choice=choice)


def mmm_regularizer(sigma: Sequence[float]) -> Regularizer:
    """V(x) = -sum_i sigma_i sqrt(x_i (1 - x_i))."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite and nonnegative")
    n = sigma.size
    strictly = bool(np.all(sigma > 0))

    def value(x):
        x = np.asarray(x, float)
        return -np.sum(sigma * np.sqrt(np.maximum(x * (1.0 - x), 0.0)), axis=-1)

    def gradient(x):
        x = np.asarray(x, float)
        root = np.sqrt(np.maximum(x * (1.0 - x), 1e-300))
        return -sigma * (1.0 - 2.0 * x) / (2.0 * root)

    def choice(t):
        # 1 - t/r = sigma^2 / (r (r + t)) keeps the t > 0 branch free of cancellation
        t = np.asarray(t, float)
        r = np.hypot(t, sigma)
        return np.where(t > 0.0, 0.5 * sigma ** 2 / (r * (r + np.abs(t))), 0.5 * (1.0 - t / r))

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=strictly, strictly_convex=strictly,
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
    g = mu - _checked(reg, "gradient", np.maximum(x, 0.0), x.shape)
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


def _support_residual(g: np.ndarray, x: np.ndarray, support: np.ndarray):
    """Stationarity of g = mu - grad V(x) on each row's support and the
    unit-sum gap, with lam (m, 1), the mean of g on the support."""
    lam = _masked_mean(g, support)[:, None]
    return np.maximum(np.max(np.where(support, np.abs(g - lam), 0.0), axis=1),
                      np.abs(np.sum(x, axis=1) - 1.0)), lam


def _support_steps(jac: np.ndarray, centred: np.ndarray, support: np.ndarray,
                   gap: np.ndarray) -> np.ndarray:
    """Each row's `core.newton_step` on its support, from the FD Hessian
    `jac` (m, n, n) restricted there, or the centred gradient where that
    step is unusable; zero outside the support. Rows with supports of one
    size are solved in one stacked call."""
    d = np.zeros_like(centred)
    sizes = support.sum(axis=1)
    for k in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == k)
        idx = np.nonzero(support[rows])[1].reshape(-1, k)
        hess = jac[rows[:, None, None], idx[:, :, None], idx[:, None, :]]
        c = centred[rows[:, None], idx]
        step = newton_step(hess, c, gap[rows])
        d[rows[:, None], idx] = np.where(np.isnan(step), c, step)
    return d


def _iterative_solve(reg: Regularizer, mu: np.ndarray):
    """Damped active-set Newton ascent of mu.x - V(x) from the barycentre,
    for a batch mu of shape (m, n): x (m, n), iterations and converged.

    Each step is `core.newton_step` on the support, with the Hessian of V
    taken as the central-difference Jacobian of grad V, or the centred
    gradient where that step is unusable. A barrier V keeps every
    coordinate, and a step goes at most 0.9 of the way to the boundary; any
    other V may step onto the boundary, and a coordinate that reaches 0
    leaves the support. Backtracking accepts a step when the support
    residual at least halves, or else by the Armijo test on the objective.
    When a non-barrier V is stationary on its support, the outside
    coordinate that most violates the KKT conditions joins it.

    Each point keeps its own support, step length and acceptance, and
    stops as it would alone. The points still pending take each iteration
    together: one stencil call of grad V gives all their Hessians, and each
    backtracking round is one call of grad V (and of V for the points
    that reach the Armijo test).
    """
    m, n = mu.shape
    barrier = reg.boundary_barrier
    x = np.full((m, n), 1.0 / n)
    support = np.ones((m, n), dtype=bool)
    g = mu - _checked(reg, "gradient", x, x.shape)
    if not np.all(np.isfinite(g)):
        raise NumericError("regularizer gradient is not finite at the barycentre")
    f = np.full(m, np.nan)  # objective at x, evaluated when a step needs the Armijo test
    iterations = np.full(m, SOLVER_MAX_ITER)
    todo = np.arange(m)

    for it in range(SOLVER_MAX_ITER):
        done = _kkt_residual(g[todo], x[todo]) <= SOLVER_TOL
        iterations[todo[done]] = it
        todo = todo[~done]
        if todo.size == 0:
            break
        s = support[todo]
        res, lam = _support_residual(g[todo], x[todo], s)
        step = np.ones(todo.size, dtype=bool)  # the points that take a step now
        if not barrier:
            gap = np.where(s, -np.inf, g[todo] - lam)
            join = (res <= SOLVER_TOL) & (np.max(gap, axis=1) > SOLVER_TOL)
            support[todo[join], np.argmax(gap[join], axis=1)] = True
            step = ~join
            s, lam, res = s[step], lam[step], res[step]
        rows = todo[step]
        xs = x[rows]
        centred = np.where(s, g[rows] - lam, 0.0)
        # x_i +- h stays strictly inside (0, 1) for a barrier V
        h = np.minimum(1e-7, 0.4 * xs) if barrier else 1e-7
        d = _support_steps(finite_diff_jacobian(reg.gradient, xs, h), centred, s,
                           1.0 - np.sum(xs, axis=1))
        slope = rowdot(centred, d)
        # distance to the boundary along d, per coordinate that d shrinks
        reach = np.where(d < 0.0, xs / np.maximum(-d, 1e-300), np.inf)
        t = np.minimum(1.0, np.min(reach, axis=1) * (0.9 if barrier else 1.0))
        moved = np.zeros(rows.size, dtype=bool)
        trial = np.flatnonzero(t > 0.0)  # positions in rows still backtracking
        for _ in range(60):
            if trial.size == 0:
                break
            at = rows[trial]
            y = xs[trial] + t[trial, None] * d[trial]
            y_support = s[trial]
            if not barrier:
                y[reach[trial] <= t[trial, None]] = 0.0
                y = np.maximum(y, 0.0)
                y_support = y_support & (y > 0.0)
            gy = mu[at] - reg.gradient(y)
            finite = np.all(np.isfinite(gy), axis=1)
            ok = finite & (_support_residual(gy, y, y_support)[0] <= 0.5 * res[trial])
            fy = np.full(trial.size, np.nan)
            armijo = finite & ~ok
            if np.any(armijo):
                ra, pa = at[armijo], trial[armijo]
                unknown = ra[np.isnan(f[ra])]
                f[unknown] = _objective(reg, mu[unknown], x[unknown])
                fa, fya = f[ra], _objective(reg, mu[ra], y[armijo])
                fy[armijo] = fya
                ok[armijo] = np.isfinite(fya) & (
                    (fya >= fa + 1e-4 * t[pa] * slope[pa])
                    | (fya >= fa - 1e-14 * np.maximum(1.0, np.abs(fa))))
            acc = at[ok]
            x[acc], g[acc], f[acc], support[acc] = y[ok], gy[ok], fy[ok], y_support[ok]
            moved[trial[ok]] = True
            trial = trial[~ok]
            t[trial] *= 0.5
        # a point whose step found no acceptable length stops here
        stopped = np.zeros(todo.size, dtype=bool)
        stopped[np.flatnonzero(step)[~moved]] = True
        iterations[todo[stopped]] = it
        todo = todo[~stopped]

    return x, iterations, _kkt_residual(g, x) <= SOLVER_TOL


def _support_system(reg: Regularizer, support: tuple):
    """Indices of the support and n (the unit-sum row), the outside indices
    and the bordered KKT matrix of one support, cached on `reg`."""
    entry = reg._supports.get(support)
    if entry is None:
        s = np.asarray(support)
        system = bordered(2.0 * reg.quadratic_matrix[np.ix_(s, s)])
        entry = reg._supports[support] = (np.append(s, reg.n),
                                          np.setdiff1d(np.arange(reg.n), s), system)
    return entry


def _quadratic_argmax(reg: Regularizer, mu: np.ndarray):
    """Enumerate active sets of the simplex QP for a batch; exact for strictly convex V.

    Supports are tried largest first, in `itertools.combinations` order, and
    each point keeps the first whose KKT solution is nonnegative (to 1e-12)
    with no outside coordinate above the multiplier (by more than 1e-10).
    All points still pending at a support are solved in one stacked call.
    """
    a_mat = reg.quadratic_matrix
    m, n = mu.shape
    x = np.zeros((m, n))
    iterations = np.zeros(m, dtype=int)
    pending = np.arange(m)
    # x depends only on utility differences: taking utilities relative to
    # each point's largest keeps huge ones from cancelling in the solves (a
    # support without the largest is optimal only within 4 max|A| of it);
    # column n holds the right-hand side of the unit-sum row
    shifted = np.ones((m, n + 1))
    shifted[:, :n] = mu - mu.max(axis=1, keepdims=True)
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n, 0, -1))
    for tried, support in enumerate(supports, start=1):
        if pending.size == 0:
            break
        rows, outside, system = _support_system(reg, support)
        s, k = rows[:-1], rows.size - 1
        mu_p = shifted[pending]
        try:
            sol = np.linalg.solve(system, mu_p[:, rows, None])[..., 0]
        except np.linalg.LinAlgError:
            continue
        x_s, lam = sol[:, :k], sol[:, k]
        ok = ~(x_s.min(axis=1) < -1e-12)
        x_p = np.zeros((pending.size, n))
        x_p[:, s] = np.maximum(x_s, 0.0)
        if outside.size:
            grad = mu_p[:, :n] - 2.0 * np.matmul(a_mat, x_p[..., None])[..., 0]
            ok &= ~((grad[:, outside] - lam[:, None]).max(axis=1) > 1e-10)
        done = pending[ok]
        x[done], iterations[done] = x_p[ok], tried
        pending = pending[~ok]
    converged = np.ones(m, dtype=bool)
    # strictly convex problems always terminate above, with a unit sum; the
    # Newton ascent takes any point left without a support (x = 0) or whose
    # solve lost the sum's digits
    left = np.flatnonzero(abs(x.sum(axis=1) - 1.0) > SOLVER_TOL)
    if left.size:
        x[left], iterations[left], converged[left] = _iterative_solve(reg, mu[left])
    return x, iterations, converged


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
    # x depends only on utility differences: far from the origin, lam ~ |mu|
    # would keep too few digits for the unit-sum test, so utilities are taken
    # relative to each point's largest
    mu = mu - mu.max(axis=-1, keepdims=True)

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
    """Maximizers of a batch mu of shape (m, n): x (m, n), iterations, converged."""
    if not reg.strictly_convex:
        raise DegenerateRegularizerError(
            f"{reg.name} is not strictly convex; the argmax may be non-unique")
    if reg.quadratic_matrix is not None and reg.n <= 15:
        return _quadratic_argmax(reg, mu)
    if reg.choice is not None:
        return _separable_argmax(reg, mu)
    # the rest: CMM, quadratics with n > 15 and user regularizers
    return _iterative_solve(reg, mu)


def _utilities(reg: Regularizer, mu) -> np.ndarray:
    """Validated utilities of shape (..., n), flattened to (m, n)."""
    mu = np.asarray(mu, dtype=float)
    as_utility(mu.ravel())  # finite entries, at least two
    if mu.shape[-1] != reg.n:
        raise ValueError(f"mu has {mu.shape[-1]} entries, regularizer expects {reg.n}")
    return mu.reshape(-1, reg.n)


def _objective(reg: Regularizer, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mu.x - V(x) for each row, in one call of V."""
    return rowdot(mu, x) - _checked(reg, "value", x, x.shape[:-1])


def solve_ram(reg: Regularizer, mu) -> SolveResult:
    """Maximize mu.x - V(x) over the simplex, at one point or a batch.

    The path follows the regularizer's structure: for a quadratic V with
    n <= 15, active-set enumeration with each support's KKT matrix cached
    on the regularizer; for a separable V (`choice` set: entropy,
    log-barrier, MMM and every MDM), the one multiplier, in closed form or
    by bisection; otherwise (CMM, quadratics with n > 15, user
    regularizers) a damped active-set Newton ascent that steps the whole
    batch together. V's `value` and `gradient` must broadcast over points
    of shape (..., n); a user regularizer written for one point is lifted
    with `welfarechoice.pointwise`.

    A 1-D `mu` gives scalar fields. A batch of shape (..., n) is solved in
    one call and gives `x_star` of shape (..., n) and the other fields of
    shape (...), each entry equal to the solve of its own point; for a
    separable V, `iterations` counts the bisection steps of the batch.
    """
    flat = _utilities(reg, mu)
    x, iterations, converged = _argmax(reg, flat)
    w = _objective(reg, flat, x)
    kkt = verify_kkt(reg, flat, x)
    if np.ndim(mu) == 1:
        return SolveResult(x[0], float(w[0]), float(kkt[0]), int(iterations[0]),
                           bool(converged[0]))
    shape = np.shape(mu)[:-1]
    return SolveResult(x.reshape(np.shape(mu)), w.reshape(shape), kkt.reshape(shape),
                       iterations.reshape(shape), converged.reshape(shape))


def ram_welfare(reg: Regularizer) -> WelfareModel:
    """Wrap a regularizer as a WelfareModel (w from the solve, q = argmax).

    `value` and `gradient` solve their whole point set in one call, and share
    it: the last point set solved is kept, so asking for w and q at the same
    points solves once. x = e_i gives w(mu) >= mu_i - V(e_i), so the
    superlinear bounds are -V(e_i) when V is finite at every vertex, and
    None otherwise (a barrier such as the log-barrier). The model keeps
    `reg` as its `regularizer`, whose V and grad V `duality` reads.
    """
    last = [None]  # (key, x) of the last point set, replaced whole

    def solve(mu):
        flat = _utilities(reg, mu)
        key = (flat.shape, flat.tobytes())
        entry = last[0]
        if entry is None or entry[0] != key:
            x, _, converged = _argmax(reg, flat)
            if not np.all(converged):
                bad = flat[int(np.argmin(converged))]
                raise NumericError(f"solver did not converge for {reg.name} at mu={bad}")
            entry = last[0] = (key, x)
        return flat, entry[1]

    def value(mu):
        flat, x = solve(mu)
        w = _objective(reg, flat, x)
        return float(w[0]) if np.ndim(mu) == 1 else w.reshape(np.shape(mu)[:-1])

    def gradient(mu):
        _, x = solve(mu)
        return x.reshape(np.shape(mu)).copy()

    vertices = _checked(reg, "value", np.eye(reg.n), (reg.n,))
    bounds = -vertices if np.all(np.isfinite(vertices)) else None
    return WelfareModel(n=reg.n, value=value, gradient=gradient,
                        superlinear_bounds=bounds, name=f"ram[{reg.name}]",
                        regularizer=reg)
