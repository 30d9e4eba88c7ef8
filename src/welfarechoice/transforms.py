"""Composition operators that build new welfare models from existing ones.

Scaling re-temperatures a model (larger eta spreads choice probabilities
toward uniform), mixing combines models over subsets of the alternatives
with population weights, and crossing precomposes with a nonnegative
row-stochastic matrix. All three wrap the inner models lazily; nothing is
tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import NumericError, positive_scale
from .welfare import WelfareModel


def scale(model: WelfareModel, eta: float) -> WelfareModel:
    """w(mu) = eta * w_inner(mu / eta); the gradient is q_inner(mu / eta), and
    the conjugate eta V where the inner model carries V. eta V keeps V's
    solver fields (eta A, t -> choice(t / eta), mu -> eta multiplier(mu / eta)),
    so `solve_ram` takes the inner V's path."""
    positive_scale(eta, "eta")

    def inner(mu):  # not shifted: the inner model need not be translation invariant
        try:
            with np.errstate(over="raise"):
                return np.asarray(mu, float) / eta
        except FloatingPointError:
            raise NumericError(f"mu / eta overflows at eta = {eta:g}") from None

    def value(mu):
        return eta * model.value(inner(mu))

    def gradient(mu):
        return model.gradient(inner(mu))

    b, V, reg = model.superlinear_bounds, model.regularizer, None
    with np.errstate(over="ignore"):  # an overflow is refused where it is read
        bounds = None if b is None else eta * np.asarray(b, dtype=float)
        matrix = None if V is None or V.quadratic_matrix is None else eta * V.quadratic_matrix
    if V is not None:
        reg = replace(V, value=lambda x: eta * V.value(x),
                      gradient=lambda x: eta * np.asarray(V.gradient(x)),
                      name=f"scale({V.name}, {eta:g})", quadratic_matrix=matrix,
                      choice=None if V.choice is None else lambda t: V.choice(inner(t)),
                      multiplier=(None if V.multiplier is None
                                  else lambda mu: eta * V.multiplier(inner(mu))))
    return WelfareModel(n=model.n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"scale({model.name}, {eta:g})", regularizer=reg)


@dataclass(frozen=True)
class MixtureComponent:
    """A welfare model over a subset of the global alternatives."""

    model: WelfareModel
    indices: tuple
    weight: float


def mix(components: Sequence[MixtureComponent], n: int) -> WelfareModel:
    """Population mixture: w(mu) = sum_k weight_k * w_k(mu restricted).

    The index sets must cover range(n), n >= 2 (overlaps allowed), and the
    weights must sum to one. Zero-weight components are kept but contribute
    nothing. The superlinear bounds sum weight times those of each
    positive-weight component, read as a `cross` by the rows e_i of its indices.
    """
    comps = list(components)
    if not comps:
        raise ValueError("at least one component required")
    covered = set()
    for c in comps:
        if not c.weight >= 0:
            raise ValueError(f"weights must be nonnegative, got {c.weight!r}")
        if len(c.indices) != c.model.n:
            raise ValueError("component model size must match its index set")
        if any(not 0 <= i < n for i in c.indices):
            raise ValueError("component index out of range")
        covered.update(c.indices)
    if covered != set(range(n)):
        raise ValueError("component index sets must cover all alternatives")
    total = sum(c.weight for c in comps)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {total!r}, not 1")

    # the components that contribute: weight, model and index array
    live = [(c.weight, c.model, np.asarray(c.indices, dtype=int)) for c in comps if c.weight > 0]

    def value(mu):
        mu = np.asarray(mu, float)
        return sum(w * model.value(mu[..., idx]) for w, model, idx in live)

    def gradient(mu):
        mu = np.asarray(mu, float)
        q = np.zeros(mu.shape)
        for w, model, idx in live:
            # add.at sums over a repeated index; q[..., idx] += would count it once
            np.add.at(q, (..., idx), w * np.asarray(model.gradient(mu[..., idx]), float))
        return q

    inner = [(w, cross(model, np.eye(n)[idx]).superlinear_bounds) for w, model, idx in live]
    bounds = None if any(b is None for _, b in inner) else sum(w * b for w, b in inner)
    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"mix({len(comps)} components)")


def cross(model: WelfareModel, matrix: Sequence[Sequence[float]]) -> WelfareModel:
    """w(mu) = w_inner(A mu) with gradient A' q_inner(A mu), for a translation
    invariant inner model.

    A must be nonnegative with unit row sums and have one row per inner
    alternative; the output model lives on A's column space. Only rows
    exactly e_i certify superlinear bounds.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise ValueError("crossing matrix must be two-dimensional")
    if A.shape[0] != model.n:
        raise ValueError(
            f"matrix has {A.shape[0]} rows, inner model expects {model.n}")
    if not np.all(A >= 0):  # refuses NaN too
        raise ValueError("crossing matrix entries must be nonnegative")
    if np.max(np.abs(A.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("crossing matrix rows must sum to 1")
    n = A.shape[1]
    if n < 2:
        raise ValueError("need at least two alternatives")

    # A is row stochastic, so A(mu - m 1) = A mu - m 1: the inner model reads
    # utilities relative to the largest, m, and the value adds m back; a
    # difference past the float range is floored at the most negative float,
    # so a zero weight on it gives 0, not 0 * -inf
    def shifted(mu):
        mu = np.asarray(mu, float)
        top = mu.max(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            return top[..., 0], np.maximum(mu - top, -np.finfo(float).max) @ A.T

    def value(mu):
        top, y = shifted(mu)
        return top + model.value(y)

    def gradient(mu):
        return np.asarray(model.gradient(shifted(mu)[1]), dtype=float) @ A

    bounds = None
    if model.superlinear_bounds is not None:
        # row r of A exactly the unit vector e_i certifies w(mu) >= mu_i + b_r
        unit = np.all(A[:, None, :] == np.eye(n), axis=-1)
        inner_b = np.asarray(model.superlinear_bounds, dtype=float)[:, None]
        per_col = np.max(np.where(unit, inner_b, -np.inf), axis=0)
        bounds = per_col if np.all(np.isfinite(per_col)) else None
    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"cross({model.name})")
