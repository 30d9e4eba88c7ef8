"""Shared numeric foundations.

Input validation, sum-constrained Newton steps and their bordered matrix,
finite differences, 1-D quadrature, monotone root finding, and the seeded
random-stream contract used by the Monte Carlo code. Everything here is
pure given its inputs; random state is always created locally from an
explicit seed.

This is the package's one finite-difference layer: every numeric
derivative elsewhere (gradient checks, FD Hessians and Jacobians in the
solvers, cross effects, sign tests) goes through `finite_diff_gradient`,
`finite_diff_jacobian` or `mixed_partial`. A stencil is one call: its 2k
or 2^k points are stacked into one (points, n) array, so the function
differenced must broadcast over (..., n), as a `WelfareModel` does. A
per-point function is lifted with `welfarechoice.pointwise`; one that is
not gets a ValueError naming it, never a result of the wrong shape.

Steps and tolerances are fixed numbers: the primitives here take them as
literal defaults, and each tolerance used elsewhere is a constant of the
module that reads it.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Callable, Iterator, Sequence

import numpy as np

SIMPLEX_TOL = 1e-10

# Fixed Monte Carlo partition size. Sample index -> stream mapping depends
# only on (seed, partition index), never on worker count.
MC_CHUNK = 1 << 16


class NumericError(RuntimeError):
    """A numeric operation produced non-finite values or failed to converge."""


class QuadratureError(NumericError):
    """Adaptive quadrature could not reach the requested absolute error."""


class BracketError(ValueError):
    """Root-finding target lies outside the supplied bracket."""


def positive_scale(value: float, name: str) -> None:
    """Refuse a scale parameter unless it is positive and finite."""
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def as_utility(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return a deterministic-utility vector (n >= 2, finite)."""
    mu = np.asarray(values, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("utility vector must be one-dimensional with n >= 2")
    if not np.all(np.isfinite(mu)):
        raise ValueError("utility vector must be finite")
    return mu


def as_utility_of(values: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """`as_utility(values)`, refused unless it has one entry per alternative of n."""
    mu = as_utility(values)
    if mu.size != n:
        raise ValueError(f"utility vector has {mu.size} entries, "
                         f"not one for each of {n} alternatives")
    return mu


def as_probability(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return a point on the probability simplex (to SIMPLEX_TOL)."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("probability vector must be one-dimensional with n >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("probability vector must be finite")
    if np.min(x) < -SIMPLEX_TOL:
        raise ValueError(f"entry {np.min(x):.3e} below -{SIMPLEX_TOL:.0e}")
    if abs(float(np.sum(x)) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"entries sum to {float(np.sum(x))!r}, not 1")
    return x


def as_symmetric(matrix, what: str) -> np.ndarray:
    """Validate and return a square matrix, symmetric to 1e-10; errors name it `what`."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} must be square")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError(f"{what} must be symmetric")
    return matrix


def bordered(matrix: np.ndarray) -> np.ndarray:
    """The KKT matrix [[M, 1], [1', 0]] of a quadratic model under one sum constraint.

    Newton steps on the simplex (unit sum) and on the zero-sum hyperplane
    solve against it, as does each support of the quadratic RAM solver.
    A stack of matrices (..., k, k) gives a stack of systems.
    """
    k = matrix.shape[-1]
    system = np.ones(matrix.shape[:-2] + (k + 1, k + 1))
    system[..., :k, :k] = matrix
    system[..., k, k] = 0.0
    return system


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, each row equal to its own 1-D `a @ b` bit for bit.

    A stacked (1, n) @ (n, 1) product makes the same dot call per row as the
    1-D product; `np.sum(a * b)` or `einsum` round differently.
    """
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def newton_step(hess: np.ndarray, g: np.ndarray, gap=0.0) -> np.ndarray:
    """Ascent step d of [[H, 1], [1', 0]] (d, nu) = (g, gap) with H symmetrized.

    H is a finite-difference Hessian of the convex part of the objective, g
    its gradient and gap what d must add to the sum. Broadcasts over leading
    axes: H (..., k, k), g (..., k) and gap (...) give d (..., k), all
    systems in one stacked solve. A row of d is NaN where its system is
    singular or non-finite, or d is no ascent (g.d <= 0).
    """
    hess, g = np.asarray(hess, dtype=float), np.asarray(g, dtype=float)
    system = bordered(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    rhs = np.concatenate([g, np.broadcast_to(gap, g.shape[:-1])[..., None]], axis=-1)
    # an exact zero pivot gives sign 0 (log|det| = -inf), and such a system is
    # swapped for the identity; it and a non-finite step are discarded silently
    with np.errstate(all="ignore"):
        usable = np.linalg.slogdet(system)[0] != 0.0
        system = np.where(usable[..., None, None], system, np.eye(system.shape[-1]))
        d = np.linalg.solve(system, rhs[..., None])[..., :-1, 0]
        usable &= np.all(np.isfinite(d), axis=-1) & (rowdot(g, d) > 0.0)
    return np.where(usable[..., None], d, np.nan)


def _evaluate(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
              scalar: bool) -> np.ndarray:
    """f at every row of a stencil `points` (P, n) in one call, checked
    against the broadcasting contract: P values, or P rows of values. A
    stencil of P = n points gets a copy of its first, whose value is dropped,
    so that a per-point function (leading axis n) cannot pass the check."""
    pad = points.shape[0] == points.shape[1]
    if pad:
        points = np.concatenate([points, points[:1]])
    out = np.asarray(f(points), dtype=float)
    if out.shape[:1] != points.shape[:1] or (scalar and out.ndim != 1):
        raise ValueError(
            f"function returned shape {out.shape} for a stencil of {points.shape[0]} "
            "points: a stencil is evaluated in one call, so the function must "
            "broadcast over (..., n); wrap per-point functions in "
            "welfarechoice.pointwise")
    return out[:-1] if pad else out


def finite_diff_gradient(f: Callable[[np.ndarray], np.ndarray],
                         mu: np.ndarray,
                         h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function at `mu`, its
    `finite_diff_jacobian`; a non-finite value of f raises NumericError."""
    mu = np.asarray(mu, dtype=float)

    def finite(points):
        values = _evaluate(f, points, scalar=True)
        bad = ~np.isfinite(values)
        if np.any(bad):
            # the first coordinate whose pair of points holds one
            raise NumericError("non-finite function value near coordinate "
                               f"{int(np.argmax(bad.reshape(2, -1).any(axis=0)))}")
        return values

    return finite_diff_jacobian(finite, mu, h)


def finite_diff_jacobian(F: Callable[[np.ndarray], np.ndarray],
                         x: np.ndarray,
                         h: float | Sequence[float] | np.ndarray,
                         columns: Sequence[int] | None = None) -> np.ndarray:
    """Central-difference Jacobian of a function at one point or a batch.

    Column k is (F(x + h_k e_i) - F(x - h_k e_i)) / (2 h_k) with
    i = columns[k] (every coordinate when `columns` is None). `h` is one
    step for all columns or steps of shape (..., k). For x of shape (..., n)
    the 2k points of every stencil go to F in one call of shape (points, n);
    F maps them to scalars (the result has shape (..., k)) or to vectors of
    length p (shape (..., p, k)).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    cols = np.arange(n) if columns is None else np.asarray(columns, dtype=int)
    step = np.broadcast_to(np.asarray(h, dtype=float), x.shape[:-1] + cols.shape)
    shift = np.zeros(step.shape + (n,))
    shift[..., np.arange(cols.size), cols] = step
    points = np.stack([x[..., None, :] + shift, x[..., None, :] - shift])
    values = _evaluate(F, points.reshape(-1, n), scalar=False)
    hi, lo = values.reshape(points.shape[:-1] + values.shape[1:])
    if hi.ndim > step.ndim:  # a vector F: one column per perturbed coordinate
        return np.swapaxes(hi - lo, -1, -2) / (2.0 * step[..., None, :])
    return (hi - lo) / (2.0 * step)


def mixed_partial(f: Callable[[np.ndarray], np.ndarray],
                  mu: np.ndarray,
                  indices: Sequence[int],
                  h: float = 1e-2) -> float | np.ndarray:
    """Nested central difference estimating a k-th order mixed partial.

    `indices` lists the coordinates differentiated once each; they must be
    distinct. For mu of shape (..., n) the 2^k points of every stencil are
    one call of f, and the result has shape (...).
    """
    mu = np.asarray(mu, dtype=float)
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    if not 1 <= len(idx) <= mu.shape[-1]:
        raise ValueError("need between 1 and n distinct indices")
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(idx))))
    points = np.repeat(mu[..., None, :], len(signs), axis=-2)
    points[..., idx] += signs * h
    values = _evaluate(f, points.reshape(-1, mu.shape[-1]), scalar=True)
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite function value in difference stencil")
    # summed in stencil order, as one point at a time would be
    values = np.moveaxis(values.reshape(points.shape[:-1]), -1, 0)
    total = sum(float(np.prod(s)) * v for s, v in zip(signs, values))
    return total / (2.0 * h) ** len(idx)


def _quad_panel(g, a: float, b: float, abs_tol: float, depth: int) -> float:
    from scipy import integrate  # imported on first use, which most CLI runs never reach
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(g, a, b, epsabs=abs_tol, epsrel=0.0, limit=200)
    if not np.isfinite(val):
        raise QuadratureError("quadrature produced a non-finite value")
    if err <= max(abs_tol, 1e-13 * abs(val)):
        return float(val)
    if depth >= 24 or b - a <= 1e-14 * max(1.0, abs(a) + abs(b)):
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds tolerance "
            f"{abs_tol:.2e} after maximal refinement")
    mid = 0.5 * (a + b)
    return (_quad_panel(g, a, mid, 0.5 * abs_tol, depth + 1)
            + _quad_panel(g, mid, b, 0.5 * abs_tol, depth + 1))


def integrate_1d(g: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of g over [a, b] with absolute error <= 1e-10.

    Panels whose error estimate misses the tolerance are bisected
    recursively, which isolates integrable endpoint singularities.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    return _quad_panel(g, a, b, 1e-10, depth=0)


def bisect_increasing(g: Callable[[np.ndarray], np.ndarray], target, lo, hi,
                      tol: float = 1e-12):
    """Solve g(x) = target for nondecreasing g on [lo, hi] by bisection.

    Each step makes four halvings in one call of g: it evaluates g at the
    15 interior points that split the bracket into 16 equal parts and keeps
    the part where g crosses the target. After ceil(log2(width / tol) / 4)
    steps the bracket is no wider than `tol`, and its midpoint is returned.

    Broadcasts elementwise: `target`, `lo` and `hi` may be arrays, and g
    maps an array of any shape ending in theirs to values of that shape,
    entry by entry. Each entry takes the steps its own bracket needs, so an
    entry's root does not depend on the others. Scalar inputs give a scalar.
    """
    target, lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(target, lo, hi))
    flo, fhi = g(lo), g(hi)
    outside = ~((flo <= target) & (target <= fhi))
    if np.any(outside):
        k = np.flatnonzero(outside)[0]
        raise BracketError(
            f"target {target.flat[k]!r} outside [g(lo), g(hi)] = "
            f"[{np.ravel(flo)[k]!r}, {np.ravel(fhi)[k]!r}]")
    width = hi - lo
    with np.errstate(divide="ignore"):
        steps = np.maximum(np.ceil(np.log2(width / tol) / 4.0), 0.0)
    final = np.ldexp(width, -4 * steps.astype(int))  # dividing by 16 is exact
    split = (np.arange(1.0, 16.0) / 16.0).reshape((15,) + (1,) * lo.ndim)
    for step in range(int(np.max(steps, initial=0.0))):
        width = width * (step < steps)  # a finished entry keeps its bracket
        below = (g(lo + width * split) < target).sum(axis=0)
        lo = lo + width * (below / 16.0)
        width = width / 16.0
    return (lo + 0.5 * final)[()]


def normal_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Standard normal quantile (inverse CDF), accurate to machine precision."""
    from scipy.special import ndtri  # imported on first use, like scipy.integrate
    return ndtri(p)


def normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal distribution function."""
    from scipy.special import ndtr  # imported on first use, like scipy.integrate
    return ndtr(z)


def normal_pdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal density."""
    return np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)


def stream_rng(seed: int, key: int = 0) -> np.random.Generator:
    """Deterministic generator for stream `key` of a seeded family."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def mc_partitions(samples: int) -> Iterator[tuple[int, int, int]]:
    """Yield (index, start, stop) partitions of a Monte Carlo run.

    Partition boundaries depend only on `samples` and MC_CHUNK, so results
    merged in index order are independent of how partitions are scheduled.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    idx = 0
    for start in range(0, samples, MC_CHUNK):
        yield idx, start, min(start + MC_CHUNK, samples)
        idx += 1
