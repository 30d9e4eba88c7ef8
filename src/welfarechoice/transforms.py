"""Composition operators that build new welfare models from existing ones.

Scaling re-temperatures a model (larger eta spreads choice probabilities
toward uniform), mixing combines models over subsets of the alternatives
with population weights, and crossing precomposes with a nonnegative
row-stochastic matrix. All three wrap the inner models lazily; nothing is
tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import positive_scale
from .welfare import WelfareModel


def scale(model: WelfareModel, eta: float) -> WelfareModel:
    """w(mu) = eta * w_inner(mu / eta); the gradient is q_inner(mu / eta)."""
    positive_scale(eta, "eta")

    def value(mu):
        return eta * model.value(np.asarray(mu, float) / eta)

    def gradient(mu):
        return model.gradient(np.asarray(mu, float) / eta)

    bounds = None
    if model.superlinear_bounds is not None:
        bounds = eta * np.asarray(model.superlinear_bounds, dtype=float)
    return WelfareModel(n=model.n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"scale({model.name}, {eta:g})")


@dataclass(frozen=True)
class MixtureComponent:
    """A welfare model over a subset of the global alternatives."""

    model: WelfareModel
    indices: tuple
    weight: float


def mix(components: Sequence[MixtureComponent], n: int) -> WelfareModel:
    """Population mixture: w(mu) = sum_k weight_k * w_k(mu restricted).

    The index sets must cover range(n) (overlaps allowed) and the weights
    must sum to one. Zero-weight components are kept but contribute
    nothing.
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

    index_arrays = [np.asarray(c.indices, dtype=int) for c in comps]

    def value(mu):
        mu = np.asarray(mu, float)
        return sum(c.weight * c.model.value(mu[..., idx])
                   for c, idx in zip(comps, index_arrays) if c.weight > 0)

    def gradient(mu):
        mu = np.asarray(mu, float)
        q = np.zeros(mu.shape)
        for c, idx in zip(comps, index_arrays):
            if c.weight > 0:
                # add.at sums over a repeated index; q[..., idx] += would count it once
                np.add.at(q, (..., idx),
                          c.weight * np.asarray(c.model.gradient(mu[..., idx]), float))
        return q

    bounds = None
    if all(set(c.indices) == set(range(n)) for c in comps):
        inner = [c.model.superlinear_bounds for c in comps]
        if all(b is not None for b in inner):
            bounds = np.zeros(n)
            for c, b in zip(comps, inner):
                perm = np.argsort(np.asarray(c.indices))
                bounds += c.weight * np.asarray(b, float)[perm]
    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"mix({len(comps)} components)")


def cross(model: WelfareModel, matrix: Sequence[Sequence[float]]) -> WelfareModel:
    """w(mu) = w_inner(A mu) with gradient A' q_inner(A mu).

    A must be nonnegative with unit row sums and have one row per inner
    alternative; the output model lives on A's column space.
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

    def value(mu):
        mu = np.asarray(mu, float)
        return model.value(mu @ A.T)

    def gradient(mu):
        mu = np.asarray(mu, float)
        q_inner = np.asarray(model.gradient(mu @ A.T), dtype=float)
        return q_inner @ A

    bounds = None
    if model.superlinear_bounds is not None:
        # row r of A equal to the unit vector e_i certifies w(mu) >= mu_i + b_r
        unit = np.all(np.isclose(A[:, None, :], np.eye(n)), axis=-1)
        inner_b = np.asarray(model.superlinear_bounds, dtype=float)[:, None]
        per_col = np.max(np.where(unit, inner_b, -np.inf), axis=0)
        if np.all(np.isfinite(per_col)):
            bounds = per_col
    return WelfareModel(n=n, value=value, gradient=gradient,
                        superlinear_bounds=bounds,
                        name=f"cross({model.name})")
