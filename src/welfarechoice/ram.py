"""Representative agent models on the probability simplex.

A `Regularizer` is a convex function V on the simplex; the induced choice
model solves max_x { mu.x - V(x) } over the simplex. This module provides
the regularizer library (entropy, quadratic, log-barrier, and the three
moment-based families built from marginal quantiles, marginal standard
deviations, and full covariance matrices), the solver, and KKT residual
verification.

Solver layout: entropic mirror descent with Armijo backtracking keeps
iterates strictly interior, which barrier-like regularizers require; a
Newton polish on the identified active set sharpens the iterate to the KKT
tolerance once mirror descent has localized it. Its Hessian of V is the
central-difference Jacobian of grad V from `core.finite_diff_jacobian`,
the package's one finite-difference layer. Regularizers that stay finite
on the boundary use projected gradient instead, and quadratic regularizers
get an exact active-set enumeration because their KKT systems are linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (NumericError, as_utility, finite_diff_jacobian,
                   integrate_1d, normal_pdf, normal_quantile,
                   project_to_simplex)
from .welfare import WelfareModel, pointwise

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

    `boundary_barrier` marks gradients that blow up toward the boundary
    (solver must stay interior). `vertex_values` holds V(e_i) for a
    regularizer bounded above on the simplex, which makes the induced
    welfare superlinear with constants b_i = -V(e_i); it is None otherwise.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    boundary_barrier: bool
    strictly_convex: bool = True
    name: str = "regularizer"
    vertex_values: Optional[np.ndarray] = None
    quadratic_matrix: Optional[np.ndarray] = None


def entropy_regularizer(eta: float, n: int) -> Regularizer:
    """V(x) = eta * sum_i x_i log x_i with the 0 log 0 = 0 convention."""
    if eta <= 0:
        raise ValueError("eta must be positive")

    def value(x):
        x = np.asarray(x, float)
        return eta * float(np.sum(np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)))

    def gradient(x):
        return eta * (1.0 + np.log(np.maximum(np.asarray(x, float), 1e-300)))

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True,
                       name=f"entropy(eta={eta:g})", vertex_values=np.zeros(n))


def quadratic_regularizer(A: Sequence[Sequence[float]]) -> Regularizer:
    """V(x) = x' A x for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.max(np.abs(A - A.T)) > 1e-10:
        raise ValueError("A must be symmetric")
    if np.min(np.linalg.eigvalsh(A)) <= 1e-10:
        raise ValueError("A must be positive definite")
    n = A.shape[0]

    def value(x):
        x = np.asarray(x, float)
        return float(x @ A @ x)

    def gradient(x):
        return 2.0 * (A @ np.asarray(x, float))

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=False, name="quadratic",
                       vertex_values=np.diag(A).copy(), quadratic_matrix=A.copy())


def log_barrier_regularizer(n: int) -> Regularizer:
    """V(x) = -sum_i log x_i on the interior, +inf on the boundary."""
    if n < 2:
        raise ValueError("need at least two alternatives")

    def value(x):
        x = np.asarray(x, float)
        if np.min(x) <= 0.0:
            return np.inf
        return -float(np.sum(np.log(x)))

    def gradient(x):
        return -1.0 / np.maximum(np.asarray(x, float), 1e-300)

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True, name="log_barrier")


@dataclass(frozen=True)
class Marginal:
    """Per-alternative noise marginal, described by its quantile function.

    `tail_integral` is x -> integral of the quantile over [1-x, 1]; families
    with a closed form carry it, otherwise adaptive quadrature (with the
    integration limits clipped away from the quantile singularities at 0
    and 1) is used. `bounded` marks quantiles bounded on (0, 1).
    """

    family: str
    quantile: Callable[[float], float]
    mean: float
    tail_integral: Optional[Callable[[float], float]] = None
    bounded: bool = False


def uniform_marginal() -> Marginal:
    return Marginal(family="uniform", quantile=lambda t: t, mean=0.5,
                    tail_integral=lambda x: x - 0.5 * x * x, bounded=True)


def exponential_marginal(rate: float = 1.0) -> Marginal:
    if rate <= 0:
        raise ValueError("rate must be positive")

    def q(t):
        return -np.log1p(-min(t, 1.0 - _QUANTILE_CLIP)) / rate

    def tail(x):
        if x <= 0.0:
            return 0.0
        return (x - x * np.log(max(x, 1e-300))) / rate

    return Marginal(family=f"exponential(rate={rate:g})", quantile=q,
                    mean=1.0 / rate, tail_integral=tail)


def logistic_marginal(scale: float = 1.0) -> Marginal:
    if scale <= 0:
        raise ValueError("scale must be positive")

    def q(t):
        t = min(max(t, _QUANTILE_CLIP), 1.0 - _QUANTILE_CLIP)
        return scale * np.log(t / (1.0 - t))

    def tail(x):
        x = min(max(x, 0.0), 1.0)
        xl = x * np.log(max(x, 1e-300))
        cl = (1.0 - x) * np.log(max(1.0 - x, 1e-300))
        return scale * (-xl - cl)

    return Marginal(family=f"logistic(scale={scale:g})", quantile=q,
                    mean=0.0, tail_integral=tail)


def normal_marginal(sd: float = 1.0) -> Marginal:
    if sd <= 0:
        raise ValueError("sd must be positive")

    def q(t):
        t = min(max(t, _QUANTILE_CLIP), 1.0 - _QUANTILE_CLIP)
        return sd * float(normal_quantile(t))

    def tail(x):
        x = min(max(x, 0.0), 1.0)
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 0.0  # full integral equals the (zero) mean
        return sd * float(normal_pdf(normal_quantile(1.0 - x)))

    return Marginal(family=f"normal(sd={sd:g})", quantile=q,
                    mean=0.0, tail_integral=tail)


def custom_marginal(quantile: Callable[[float], float],
                    mean: Optional[float] = None,
                    bounded: bool = False) -> Marginal:
    """Marginal from a raw quantile; the mean is integrated when not given."""
    if mean is None:
        mean = integrate_1d(quantile, _QUANTILE_CLIP, 1.0 - _QUANTILE_CLIP)
    return Marginal(family="custom", quantile=quantile, mean=float(mean),
                    bounded=bounded)


def _validate_monotone_quantile(m: Marginal) -> None:
    grid = np.linspace(0.01, 0.99, 33)
    vals = np.array([m.quantile(t) for t in grid])
    if np.any(np.diff(vals) < -1e-10):
        raise ValueError(f"quantile of {m.family} marginal is decreasing on a grid")


def _marginal_tail(m: Marginal, x: float) -> float:
    if m.tail_integral is not None:
        return float(m.tail_integral(x))
    lo = max(1.0 - x, _QUANTILE_CLIP)
    hi = 1.0 - _QUANTILE_CLIP
    if lo >= hi:
        return 0.0
    return integrate_1d(m.quantile, lo, hi)


def mdm_regularizer(marginals: Sequence[Marginal]) -> Regularizer:
    """V(x) = -sum_i integral_{1-x_i}^{1} Finv_i(t) dt.

    The gradient is -Finv_i(1 - x_i); marginals with quantiles unbounded
    near 0 or 1 act as boundary barriers.
    """
    marginals = list(marginals)
    n = len(marginals)
    if n < 2:
        raise ValueError("need at least two marginals")
    for m in marginals:
        _validate_monotone_quantile(m)
        if not np.isfinite(m.mean):
            raise ValueError(f"{m.family} marginal must have a finite mean")

    def value(x):
        x = np.asarray(x, float)
        return -float(sum(_marginal_tail(m, xi) for m, xi in zip(marginals, x)))

    def gradient(x):
        x = np.asarray(x, float)
        return -np.array([m.quantile(1.0 - xi) for m, xi in zip(marginals, x)])

    barrier = not all(m.bounded for m in marginals)
    vertex = -np.array([m.mean for m in marginals])
    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=barrier, name="mdm", vertex_values=vertex)


def mmm_regularizer(sigma: Sequence[float]) -> Regularizer:
    """V(x) = -sum_i sigma_i sqrt(x_i (1 - x_i))."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite and nonnegative")
    n = sigma.size
    strictly = bool(np.all(sigma > 0))

    def value(x):
        x = np.asarray(x, float)
        return -float(np.sum(sigma * np.sqrt(np.maximum(x * (1.0 - x), 0.0))))

    def gradient(x):
        x = np.asarray(x, float)
        root = np.sqrt(np.maximum(x * (1.0 - x), 1e-300))
        return -sigma * (1.0 - 2.0 * x) / (2.0 * root)

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=strictly, strictly_convex=strictly,
                       name="mmm", vertex_values=np.zeros(n))


def cmm_regularizer(cov: Sequence[Sequence[float]]) -> Regularizer:
    """V(x) = -trace((Sigma^{1/2} S(x) Sigma^{1/2})^{1/2}), S(x) = Diag(x) - x x'.

    S(x) always annihilates the all-ones vector, so the inner matrix is
    singular by construction; both the value and the directional derivative
    are taken on the range, above an eigenvalue cutoff of 1e-12. The gradient
    component formula is dV/dx_i = -(G_ii - 2 (G x)_i) / 2 with
    G = Sigma^{1/2} M^{+/2} Sigma^{1/2}; it is valid along simplex tangent
    directions (the relative interior is the safe domain).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if np.max(np.abs(cov - cov.T)) > 1e-10:
        raise ValueError("covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.min(eigvals) <= 1e-10:
        raise ValueError("covariance must be positive definite")
    sqrt_cov = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    n = cov.shape[0]

    def _inner(x):
        x = np.asarray(x, float)
        s = np.diag(x) - np.outer(x, x)
        return sqrt_cov @ s @ sqrt_cov

    def value(x):
        ev = np.linalg.eigvalsh(_inner(x))
        return -float(np.sum(np.sqrt(ev[ev > _EIG_FLOOR])))

    def gradient(x):
        x = np.asarray(x, float)
        ev, u = np.linalg.eigh(_inner(x))
        inv_root = np.where(ev > _EIG_FLOOR, 1.0 / np.sqrt(np.maximum(ev, _EIG_FLOOR)), 0.0)
        g_mat = sqrt_cov @ ((u * inv_root) @ u.T) @ sqrt_cov
        return -0.5 * (np.diag(g_mat) - 2.0 * (g_mat @ x))

    return Regularizer(n=n, value=value, gradient=gradient,
                       boundary_barrier=True, name="cmm", vertex_values=np.zeros(n))


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    w_value: float
    kkt_residual: float
    iterations: int
    converged: bool


def verify_kkt(reg: Regularizer, mu: np.ndarray, x: np.ndarray) -> float:
    """Max KKT violation of x for max { mu.x - V(x) } on the simplex.

    The equality multiplier is estimated as the mean of mu_i - dV/dx_i over
    coordinates with x_i > ACTIVE_TOL; the residual is the worst of active
    stationarity |mu_i - dV_i - lam|, the positive part of the inactive
    condition, and primal feasibility.
    """
    mu = np.asarray(mu, float)
    x = np.asarray(x, float)
    g = mu - reg.gradient(np.maximum(x, 0.0))
    active = x > ACTIVE_TOL
    if not np.any(active):
        return np.inf
    lam = float(np.mean(g[active]))
    res = float(np.max(np.abs(g[active] - lam)))
    if np.any(~active):
        res = max(res, float(np.max(np.maximum(g[~active] - lam, 0.0))))
    res = max(res, abs(float(np.sum(x)) - 1.0), float(max(0.0, -np.min(x))))
    return res


def _newton_polish(reg: Regularizer, mu: np.ndarray,
                   x0: np.ndarray) -> Optional[np.ndarray]:
    """Active-set Newton refinement of a near-optimal iterate.

    Returns a polished point with KKT residual <= SOLVER_TOL, or None when
    the refinement fails (wrong active set, singular system, step collapse).
    """
    n = reg.n
    x = np.maximum(np.asarray(x0, float), 0.0)
    x = x / x.sum()
    if reg.boundary_barrier:
        support = np.arange(n)
        x = np.maximum(x, 1e-15)
        x = x / x.sum()
    else:
        support = np.where(x > ACTIVE_TOL)[0]

    for _round in range(n + 1):
        ok = False
        for _ in range(40):
            k = support.size
            grad = mu - reg.gradient(np.maximum(x, 1e-300))
            lam = float(np.mean(grad[support]))
            resid = np.concatenate([grad[support] - lam, [x.sum() - 1.0]])
            if np.max(np.abs(resid)) <= 0.05 * SOLVER_TOL:
                ok = True
                break
            # keep x_i +- h strictly inside (0, 1) for barrier regularizers
            h = np.minimum(1e-7, 0.4 * x[support]) if reg.boundary_barrier else 1e-7
            hess = finite_diff_jacobian(reg.gradient, x, h, columns=support)[support]
            hess = 0.5 * (hess + hess.T)
            jac = np.zeros((k + 1, k + 1))
            jac[:k, :k] = -hess
            jac[:k, k] = -1.0
            jac[k, :k] = 1.0
            try:
                step = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError:
                return None
            direction = step[:k]
            t = 1.0
            neg = direction < 0
            if np.any(neg):
                frac = 0.9 if reg.boundary_barrier else 1.0
                t = min(1.0, frac * float(np.min(-x[support][neg] / direction[neg])))
            if t <= 1e-14:
                return None
            x_new = x.copy()
            x_new[support] = x[support] + t * direction
            if reg.boundary_barrier and np.any(x_new[support] <= 0.0):
                return None
            x_new[support] = np.maximum(x_new[support], 0.0)
            x = x_new
        if not ok:
            return None
        if np.any(x < -1e-12):
            return None
        full_res = verify_kkt(reg, mu, x)
        if full_res <= SOLVER_TOL:
            return x
        if reg.boundary_barrier:
            return None
        # inactive condition violated: admit the worst violator and retry
        grad = mu - reg.gradient(np.maximum(x, 0.0))
        lam = float(np.mean(grad[support]))
        outside = np.setdiff1d(np.arange(n), support)
        if outside.size == 0:
            return None
        worst = outside[int(np.argmax(grad[outside] - lam))]
        if grad[worst] - lam <= SOLVER_TOL:
            return None
        support = np.sort(np.append(support, worst))
        x[worst] = max(x[worst], 1e-12)
    return None


def _iterative_solve(reg: Regularizer, mu: np.ndarray, mirror: bool) -> SolveResult:
    n = reg.n
    x = np.ones(n) / n
    f = float(mu @ x - reg.value(x))
    step = 1.0
    polish_every = 25

    for it in range(SOLVER_MAX_ITER):
        res = verify_kkt(reg, mu, x)
        if res <= SOLVER_TOL:
            return SolveResult(x, f, res, it, True)
        if res <= 1e-4 * max(1.0, float(np.max(np.abs(mu)))) or (it > 0 and it % polish_every == 0):
            polished = _newton_polish(reg, mu, x)
            if polished is not None:
                fy = float(mu @ polished - reg.value(polished))
                if fy >= f - 1e-10 * max(1.0, abs(f)):
                    return SolveResult(polished, fy, verify_kkt(reg, mu, polished),
                                       it, True)

        g = mu - reg.gradient(np.maximum(x, 1e-300))
        if not np.all(np.isfinite(g)):
            raise NumericError("regularizer gradient is not finite at an iterate")
        accepted = False
        a = step
        for _ in range(90):
            if mirror:
                z = x * np.exp(np.clip(a * (g - np.max(g)), -700.0, 0.0))
                total = float(z.sum())
                if total <= 0.0 or not np.isfinite(total):
                    a *= 0.5
                    continue
                y = z / total
            else:
                y = project_to_simplex(x + a * g)
            fy = float(mu @ y - reg.value(y))
            gain = float(g @ (y - x))
            if np.isfinite(fy) and (fy >= f + 1e-4 * gain
                                    or fy >= f - 1e-14 * max(1.0, abs(f))):
                accepted = True
                break
            a *= 0.5
        if not accepted:
            break
        x = y
        f = max(f, fy)
        step = min(a * 2.0, 1e6)
    else:
        it = SOLVER_MAX_ITER

    res = verify_kkt(reg, mu, x)
    polished = _newton_polish(reg, mu, x)
    if polished is not None:
        fy = float(mu @ polished - reg.value(polished))
        if fy >= f - 1e-10 * max(1.0, abs(f)):
            x, f, res = polished, fy, verify_kkt(reg, mu, polished)
    return SolveResult(x, f, res, it, res <= SOLVER_TOL)


def _quadratic_exact(reg: Regularizer, mu: np.ndarray) -> SolveResult:
    """Enumerate active sets of the simplex QP; exact for strictly convex V."""
    a_mat = reg.quadratic_matrix
    n = reg.n
    tried = 0
    for size in range(n, 0, -1):
        for support in itertools.combinations(range(n), size):
            tried += 1
            s = np.asarray(support)
            k = s.size
            system = np.zeros((k + 1, k + 1))
            system[:k, :k] = 2.0 * a_mat[np.ix_(s, s)]
            system[:k, k] = 1.0
            system[k, :k] = 1.0
            rhs = np.concatenate([mu[s], [1.0]])
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            x_s, lam = sol[:k], sol[k]
            if np.min(x_s) < -1e-12:
                continue
            x = np.zeros(n)
            x[s] = np.maximum(x_s, 0.0)
            grad = mu - 2.0 * (a_mat @ x)
            outside = np.setdiff1d(np.arange(n), s)
            if outside.size and np.max(grad[outside] - lam) > 1e-10:
                continue
            f = float(mu @ x - reg.value(x))
            return SolveResult(x, f, verify_kkt(reg, mu, x), tried, True)
    # strictly convex problems always terminate above; fall back defensively
    return _iterative_solve(reg, mu, mirror=False)


def solve_ram(reg: Regularizer, mu) -> SolveResult:
    """Maximize mu.x - V(x) over the simplex.

    The path follows the regularizer's structure: exact active-set
    enumeration for a quadratic V with n <= 15, mirror descent for a
    boundary barrier, projected gradient otherwise.
    """
    mu = as_utility(mu)
    if mu.size != reg.n:
        raise ValueError(f"mu has {mu.size} entries, regularizer expects {reg.n}")
    if not reg.strictly_convex:
        raise DegenerateRegularizerError(
            f"{reg.name} is not strictly convex; the argmax may be non-unique")
    if reg.quadratic_matrix is not None and reg.n <= 15:
        return _quadratic_exact(reg, mu)
    return _iterative_solve(reg, mu, mirror=reg.boundary_barrier)


def ram_welfare(reg: Regularizer) -> WelfareModel:
    """Wrap a regularizer as a WelfareModel (w from the solve, q = argmax)."""

    def solve(mu):
        result = solve_ram(reg, mu)
        if not result.converged:
            raise NumericError(
                f"solver did not converge for {reg.name} at mu={np.asarray(mu)}")
        return result

    bounds = None
    if reg.vertex_values is not None:
        bounds = -np.asarray(reg.vertex_values, dtype=float)
    return WelfareModel(n=reg.n, value=pointwise(lambda mu: solve(mu).w_value),
                        gradient=pointwise(lambda mu: solve(mu).x_star),
                        superlinear_bounds=bounds, name=f"ram[{reg.name}]")
