"""Shared numeric foundations.

Input validation, `refuse_non_finite` (the one refusal of a non-finite
result, naming its point), sum-constrained Newton steps and their bordered matrix,
the damped Newton ascent that the RAM solver and the conjugate share,
finite differences, monotone root finding, the seeded random-stream
contract used by the Monte Carlo code, and `keep_last`, the one-entry memo
of the last Monte Carlo run and of the RAM solve `solve_ram` and
`ram_welfare` share. The rest is pure; random state has an explicit seed.

This is the package's one finite-difference layer: every numeric
derivative elsewhere (gradient checks, FD Hessians and Jacobians in the
solvers, cross effects, sign tests) goes through `finite_diff_gradient`,
`finite_diff_jacobian` or `mixed_partial`. A stencil costs one block,
one contract check (`_evaluate`, which guards every batch call of a model
or regularizer too) and one call: its 2n or 2^k points are written into
one array, so the function differenced must broadcast over (..., n), as a
`WelfareModel` does. A per-point function is lifted with `pointwise`; one
that is not gets a ValueError saying so, never a result of the wrong shape.

Steps and tolerances are fixed numbers, never parameters with defaults:
GRADIENT_STEP, MIXED_PARTIAL_STEP and BISECT_TOL here, and each tolerance
used elsewhere is a constant of the module that reads it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Sequence

import numpy as np

SIMPLEX_TOL = 1e-10
ASCENT_MAX_ITER = 50
GRADIENT_STEP = 1e-6
MIXED_PARTIAL_STEP = 1e-2
BISECT_TOL = 1e-12

# Fixed Monte Carlo partition size. Sample index -> stream mapping depends
# only on (seed, partition index), never on worker count.
MC_CHUNK = 1 << 16


class NumericError(RuntimeError):
    """A numeric operation produced non-finite values or failed to converge."""


class BracketError(ValueError):
    """Root-finding target lies outside the supplied bracket."""


def refuse_non_finite(what: str, values, points):
    """`values`, refused with a NumericError at the first of `points` (..., n)
    whose row of `values`, of shape (...) or (..., k), is not finite; the
    message names `what`, that row's first non-finite entry and the point."""
    values = np.asarray(values, dtype=float)
    if np.isfinite(values).all():
        return values
    points = np.reshape(points, (-1, np.shape(points)[-1]))
    rows = values.reshape(len(points), -1)
    k = np.argmin(np.all(np.isfinite(rows), axis=1))
    value = rows[k][np.argmin(np.isfinite(rows[k]))]
    raise NumericError(f"{what} has value {value} at mu={points[k].tolist()}")


def positive_scale(value: float, name: str) -> None:
    """Refuse a scale parameter unless it is positive and finite."""
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def as_utility_of(values: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """Validate and return a deterministic-utility vector: finite, with one
    entry for each of the n >= 2 alternatives."""
    mu = np.asarray(values, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("utility vector must be one-dimensional with n >= 2")
    if not np.all(np.isfinite(mu)):
        raise ValueError("utility vector must be finite")
    if mu.size != n:
        raise ValueError(f"utility vector has {mu.size} entries, "
                         f"not one for each of {n} alternatives")
    return mu


def as_utilities(values, n: int) -> np.ndarray:
    """Validate and return utility vectors (..., n), finite; an empty stack passes."""
    mu = np.asarray(values, dtype=float)
    if mu.ndim == 0 or mu.shape[-1] != n or not np.all(np.isfinite(mu)):
        raise ValueError(f"utilities must be finite with shape (..., {n}), got shape {mu.shape}")
    return mu


def as_probability(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return points (..., n), n >= 2, on the simplex (to SIMPLEX_TOL)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("probability vector must have n >= 2 entries")
    if not np.all(np.isfinite(x)):
        raise ValueError("probability vector must be finite")
    if np.min(x, initial=0.0) < -SIMPLEX_TOL:
        raise ValueError(f"entry {np.min(x):.3e} below -{SIMPLEX_TOL:.0e}")
    sums = np.sum(x, axis=-1, keepdims=True)
    off = sums[np.abs(sums - 1.0) > SIMPLEX_TOL]
    if off.size:
        raise ValueError(f"entries sum to {float(off[0])!r}, not 1")
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


def newton_step(hess: np.ndarray, g: np.ndarray, gap=0.0, free=True) -> np.ndarray:
    """Ascent step d of [[H, 1], [1', 0]] (d, nu) = (g, gap) with H symmetrized.

    H is a finite-difference Hessian of the convex part of the objective, g
    its gradient and gap what d must add to the sum. Only the coordinates
    that the mask `free` marks (True: all) move; the others' rows and
    columns are the identity's. Broadcasts over leading axes: H (..., k, k),
    g (..., k), gap (...) and free (..., k) give d (..., k), all in one
    stacked solve. A row of d is NaN where its system is singular or
    non-finite, or d is no ascent (g.d <= 0).
    """
    hess, g = np.asarray(hess, dtype=float), np.asarray(g, dtype=float)
    k = g.shape[-1]
    system = bordered(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    if free is not True:
        pairs = free[..., :, None] & free[..., None, :]
        system[..., :k, :k] = np.where(pairs, system[..., :k, :k], np.eye(k))
        system[..., :k, k] = system[..., k, :k] = free
        g = np.where(free, g, 0.0)
    rhs = np.concatenate([g, np.broadcast_to(gap, g.shape[:-1])[..., None]], axis=-1)
    # an exact zero pivot gives sign 0 (log|det| = -inf), and such a system is
    # swapped for the identity; it and a non-finite step are discarded silently
    with np.errstate(all="ignore"):
        usable = np.linalg.slogdet(system)[0] != 0.0
        system = np.where(usable[..., None, None], system, np.eye(k + 1))
        d = np.linalg.solve(system, rhs[..., None])[..., :-1, 0]
        usable &= np.all(np.isfinite(d), axis=-1) & (rowdot(g, d) > 0.0)
    return np.where(usable[..., None], d, np.nan)


def newton_ascent(F, target: np.ndarray, z: np.ndarray, h: Callable, residual: Callable,
                  tol: float, tangent: Callable, project: Callable, land: Callable):
    """Maximize target.z - F(z) under one sum constraint by damped Newton
    steps from rows z (m, n): z (m, n), residuals (m,) and iterations (m,).

    F is convex with broadcasting `value` and `gradient` (a `WelfareModel`
    or a `ram.Regularizer`), and g = target - grad F(z). The caller gives
    the feasible set: `tangent(z, g)` returns the free coordinates (True:
    all), the gradient p along them and the gap the step must add to the
    sum, `project(d)` finishes a step, and `land(z, d, a)` gives the trial
    points at lengths a, which it may shorten, and those lengths. A step is
    `newton_step` of p with H the central-difference Jacobian of grad F at
    steps h(z), or p where that is unusable or longer than 1e6, at a trial
    length that starts at 1 and doubles after each accepted gradient step.
    A trial is accepted when `residual(z, g)` at least halves, or by the
    Armijo test where it is finite and a > 0. A row stops at residual <= tol,
    when 70 halvings find no length, or after ASCENT_MAX_ITER steps, and
    reports the steps it took. Rows step and stop as alone, sharing one
    stencil call per step and one call of grad F (and F, for Armijo tests)
    per trial round. A start where g is not finite raises NumericError.
    """
    m, n = z.shape
    z_out, res_out, iters = np.zeros_like(z), np.zeros(m), np.zeros(m, dtype=int)
    idx, z = np.arange(m), z.copy()  # row k of the pending state is row idx[k]
    g = refuse_non_finite("the starting gradient", target - _evaluate(F.gradient, z, (n,)), target)
    res = residual(z, g)
    val = np.full(m, np.nan)  # target.z - F(z), evaluated when a step needs the Armijo test
    step, stuck = np.ones(m), np.zeros(m, dtype=bool)  # stuck: no trial length accepted

    for it in range(ASCENT_MAX_ITER + 1):
        done = (res <= tol) | stuck | (it == ASCENT_MAX_ITER)
        if done.any():
            rows = idx[done]
            z_out[rows], res_out[rows], iters[rows] = z[done], res[done], it - stuck[done]
            if done.all():
                break
            idx, target, z, g, res, val, step, stuck = (
                v[~done] for v in (idx, target, z, g, res, val, step, stuck))
        free, p, gap = tangent(z, g)
        d = newton_step(finite_diff_jacobian(F.gradient, z, h(z)), p, gap, free)
        newton = np.maximum.reduce(np.abs(d), axis=1) <= 1e6  # False for an unusable (NaN) step
        d = project(np.where(newton[:, None], d, p))
        a = np.where(newton, 1.0, step)
        trial = slice(None)  # the rows still backtracking: all, then an index array
        for _ in range(70):
            z_new, a[trial] = land(z[trial], d[trial], a[trial])
            g_new = target[trial] - F.gradient(z_new)
            res_new = residual(z_new, g_new)
            ok = res_new <= 0.5 * res[trial]
            val_new = np.full(len(ok), np.nan)
            accepted = ok.all()
            if not accepted:
                trial = np.arange(len(z))[trial]
                armijo = np.flatnonzero(~ok & np.isfinite(res_new))
                t = trial[armijo]
                unknown = t[np.isnan(val[t])]  # an empty set makes no call of F
                val[unknown] = (rowdot(z[unknown], target[unknown])
                                - _evaluate(F.value, z[unknown]))
                val_new[armijo] = (rowdot(z_new[armijo], target[t])
                                   - _evaluate(F.value, z_new[armijo]))
                ok[armijo] = np.isfinite(val_new[armijo]) & (a[t] > 0.0) & (
                    val_new[armijo] >= val[t] + 1e-4 * a[t] * rowdot(p[t], d[t]))
                accepted = ok.all()
            # when every trial is accepted, the common case, no gather is needed
            t, acc = (trial, slice(None)) if accepted else (trial[ok], ok)
            z[t], g[t], res[t], val[t] = z_new[acc], g_new[acc], res_new[acc], val_new[acc]
            if accepted:
                break
            trial = trial[~ok]
            a[trial] *= 0.5
        else:
            stuck[trial] = True
        step = np.where(newton | stuck, step, np.minimum(a * 2.0, 1e6))
    return z_out, res_out, iters


def _evaluate(f: Callable[[np.ndarray], np.ndarray], points, value_shape=()) -> np.ndarray:
    """f at `points` (..., n), flattened to (P, n), in one call: the one check
    of the broadcasting contract, P values of `value_shape` (any shape for
    None), returned as shape (...) + value_shape. P = n points get a copy of
    the first, whose value is dropped, so a per-point function cannot pass;
    P = 0 points of a known value shape make no call."""
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, points.shape[-1])
    if not len(flat) and value_shape is not None:
        return np.empty(points.shape[:-1] + value_shape)
    pad = flat.shape[0] == flat.shape[1]
    if pad:
        flat = np.concatenate([flat, flat[:1]])
    out = np.asarray(f(flat), dtype=float)
    if out.shape[:1] != flat.shape[:1] or value_shape not in (None, out.shape[1:]):
        raise ValueError(
            f"function returned shape {out.shape} for {flat.shape[0]} points: a batch "
            "of points is evaluated in one call, so the function must broadcast over "
            "(..., n); wrap per-point functions in welfarechoice.pointwise")
    return (out[:-1] if pad else out).reshape(points.shape[:-1] + out.shape[1:])


def _central(F: Callable[[np.ndarray], np.ndarray], x, h, value_shape):
    """(F(x + h_i e_i), F(x - h_i e_i), h as an array): the 2n points of the
    stencil at each x (..., n) written into one (2, ..., n, n) block, one call."""
    x, step = np.asarray(x, dtype=float), np.asarray(h, dtype=float)
    n = x.shape[-1]
    points = np.empty((2,) + x.shape + (n,))
    points[0], points[1] = x[..., None, :] + 0.0, x[..., None, :]  # + 0 e_j: -0.0 reads 0.0
    points.reshape(points.shape[:-2] + (n * n,))[..., ::n + 1] = x + step, x - step  # (i, i)
    return (*_evaluate(F, points, value_shape), step)


def finite_diff_gradient(f: Callable[[np.ndarray], np.ndarray], mu: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function at `mu`, its
    `finite_diff_jacobian` at GRADIENT_STEP; a non-finite f raises NumericError."""
    hi, lo, step = _central(f, mu, GRADIENT_STEP, ())
    bad = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
    if bad.size:  # name the coordinate, in [0, n), of the first pair that holds one
        raise NumericError(f"non-finite function value near coordinate {bad[0] % hi.shape[-1]}")
    return (hi - lo) / (2.0 * step)


def finite_diff_jacobian(F: Callable[[np.ndarray], np.ndarray],
                         x: np.ndarray,
                         h: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a function at one point or a batch.

    Column i is (F(x + h_i e_i) - F(x - h_i e_i)) / (2 h_i). `h` is one step
    for all columns or steps of shape (..., n). For x of shape (..., n) the
    2n points of every stencil go to F in one call of shape (points, n); F
    maps them to scalars (the result has shape (..., n)) or to vectors of
    length p (shape (..., p, n)).
    """
    hi, lo, step = _central(F, x, h, None)  # F gives scalars or vectors
    if hi.ndim > np.ndim(x):  # a vector F: one column per perturbed coordinate
        return np.swapaxes(hi - lo, -1, -2) / (2.0 * (step[..., None, :] if step.ndim else step))
    return (hi - lo) / (2.0 * step)


@functools.cache
def _corners(k: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Shared read-only corner offsets (2^k, k) and +-1 weights of an order-k mixed stencil."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    return (np.broadcast_to(signs * MIXED_PARTIAL_STEP, signs.shape),
            tuple(float(np.prod(s)) for s in signs))


def mixed_partial(f: Callable[[np.ndarray], np.ndarray],
                  mu: np.ndarray,
                  indices: Sequence[int]) -> float | np.ndarray:
    """Nested central difference at MIXED_PARTIAL_STEP: a k-th order mixed partial.

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
    offsets, weights = _corners(len(idx))
    points = np.repeat(mu[..., None, :], len(weights), axis=-2)
    points[..., idx] += offsets
    values = refuse_non_finite("a difference stencil", _evaluate(f, points), points)
    # summed in stencil order, as one point at a time would be
    total = sum(w * v for w, v in zip(weights, np.moveaxis(values, -1, 0)))
    return total / (2.0 * MIXED_PARTIAL_STEP) ** len(idx)


def bisect_increasing(g: Callable[[np.ndarray], np.ndarray], target, lo, hi):
    """Solve g(x) = target for nondecreasing g on [lo, hi] by bisection.

    Each step makes four halvings in one call of g: it evaluates g at the
    15 interior points that split the bracket into 16 equal parts and keeps
    the part where g crosses the target. After ceil(log2(width / BISECT_TOL) / 4)
    steps, taken as a difference of logs that no finite width overflows, the
    bracket is at most BISECT_TOL wide, and its midpoint is returned.

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
            f"target {float(target.flat[k])} outside [g(lo), g(hi)] = "
            f"[{float(np.ravel(flo)[k])}, {float(np.ravel(fhi)[k])}]")
    width = hi - lo
    with np.errstate(divide="ignore"):
        steps = np.maximum(np.ceil((np.log2(width) - np.log2(BISECT_TOL)) / 4.0), 0.0)
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
    from scipy.special import ndtri  # imported on first use, not at start-up
    return ndtri(p)


def normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal distribution function."""
    from scipy.special import ndtr  # imported on first use, not at start-up
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
    for idx, start in enumerate(range(0, samples, MC_CHUNK)):
        yield idx, start, min(start + MC_CHUNK, samples)


def keep_last(compute: Callable) -> Callable:
    """`compute` with its last result kept and returned, shared, to a call with
    equal arguments: arrays compare by dtype, shape and bytes, the rest by ==.
    The one entry is replaced whole; a call that raises keeps nothing."""
    last = [(None, None)]  # (key, result); no key equals None

    def kept(*args):
        key = tuple((a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray)
                    else a for a in args)
        entry = last[0]  # read once, so a thread replacing it cannot split key from result
        if entry[0] != key:
            entry = last[0] = key, compute(*args)
        return entry[1]

    return kept
