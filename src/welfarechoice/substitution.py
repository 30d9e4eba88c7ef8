"""Substitutability and complementarity analysis.

Pairwise classification asks whether raising the utility of alternative i
locally raises or lowers the choice probability of alternative j. Every
alternative is complementary to itself (a consequence of convexity of the
welfare function); off-diagonal signs distinguish model families. The
quadratic-matrix criterion, the dimension-reduced regularizer slices, and
the sampled lattice (super/submodularity) tests provide the structural
counterparts.

The sampled checks evaluate in blocks: the lattice test draws pairs from a
sampler (rng, size) -> (size, d) and evaluates a block of them, then their
joins and meets, in one call each, so the tested function broadcasts as a
`WelfareModel` does; the model check reads a block of candidates' cross
effects from one Jacobian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import _evaluate, as_symmetric, as_utility_of, finite_diff_jacobian, stream_rng
from .ram import Regularizer
from .welfare import _DRAW_BLOCK, WelfareModel, batch_gradient, batch_value

SUBSTITUTABLE = "substitutable"
COMPLEMENTARY = "complementary"
INDETERMINATE = "indeterminate"

STEP = 1e-2
DEAD_ZONE = 1e-7
SYMMETRY_REL_TOL = 1e-4
LATTICE_TOL = 1e-9
MAX_RESAMPLES = 50
CORNER_MARGIN = 1e-6


def _label(estimate: float, dead_zone: float) -> str:
    if estimate > dead_zone:
        return COMPLEMENTARY
    if estimate < -dead_zone:
        return SUBSTITUTABLE
    return INDETERMINATE


@dataclass(frozen=True)
class PairClassification:
    i: int
    j: int
    estimate: float
    label: str


def classify_pair(model: WelfareModel, mu, i: int, j: int,
                  dead_zone: float = DEAD_ZONE) -> PairClassification:
    """Classify the (i, j) relation at mu from the sign of dq_j/dmu_i.

    A central difference at STEP estimates the cross effect; estimates
    inside the dead zone are reported indeterminate rather than forced to a
    sign. The diagonal is complementary for every welfare-derived model, so
    i == j returns that label directly (with the estimate attached).
    """
    mu = as_utility_of(mu, model.n)
    est = float(finite_diff_jacobian(model.gradient, mu, STEP, columns=[i])[j, 0])
    label = COMPLEMENTARY if i == j else _label(est, dead_zone)
    return PairClassification(i=i, j=j, estimate=est, label=label)


@dataclass(frozen=True)
class SubstitutionReport:
    """Pairwise classification matrix at a single utility point."""

    mu: np.ndarray
    labels: np.ndarray        # (n, n) array of label strings
    estimates: np.ndarray     # (n, n) cross-partial estimates
    symmetric: bool


def _cross_effects(model: WelfareModel, mu: np.ndarray) -> np.ndarray:
    """dq_j/dmu_i at entry (..., i, j) for mu of shape (..., n): one Jacobian
    of the choice map, from one gradient call on 2n points per row of mu,
    whose column i is computed exactly as `classify_pair` computes it."""
    return np.swapaxes(finite_diff_jacobian(model.gradient, mu, STEP), -1, -2)


def substitution_report(model: WelfareModel, mu) -> SubstitutionReport:
    """All-pairs classification; flags whether estimates are symmetric.

    Entry (i, j) equals `classify_pair(model, mu, i, j)`; one Jacobian of
    the choice map serves every pair.
    """
    mu = as_utility_of(mu, model.n)
    estimates = _cross_effects(model, mu)
    labels = np.array([[COMPLEMENTARY if i == j else _label(e, DEAD_ZONE)
                        for j, e in enumerate(row)] for i, row in enumerate(estimates)],
                      dtype=object)
    tol = SYMMETRY_REL_TOL * max(1.0, abs(model.value(mu)))
    symmetric = bool(np.max(np.abs(estimates - estimates.T)) <= tol)
    return SubstitutionReport(mu=mu, labels=labels, estimates=estimates,
                              symmetric=symmetric)


class ScanRow(NamedTuple):
    mu_i: float
    q_j: float
    label: str


def scan_line(model: WelfareModel, mu_base, i: int, j: int,
              lo: float, hi: float, steps: int) -> list[ScanRow]:
    """Evaluate q_j along mu_i in [lo, hi]; classify interior grid points.

    Classification uses the grid's own central differences; the two
    endpoints are reported indeterminate.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    mu_base = as_utility_of(mu_base, model.n)
    grid = np.linspace(lo, hi, steps)
    points = np.tile(mu_base, (steps, 1))
    points[:, i] = grid
    q_vals = batch_gradient(model, points)[:, j]
    slopes = (q_vals[2:] - q_vals[:-2]) / (2.0 * (grid[1] - grid[0]))
    # `_label` on every slope at once; a NaN slope passes neither test
    labels = np.full(steps, INDETERMINATE, dtype=object)
    labels[1:-1][slopes > DEAD_ZONE] = COMPLEMENTARY
    labels[1:-1][slopes < -DEAD_ZONE] = SUBSTITUTABLE
    return list(map(ScanRow, grid.tolist(), q_vals.tolist(), labels.tolist()))


@dataclass(frozen=True)
class TripleCheck:
    center: int
    pair: tuple
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class QuadraticCriterionReport:
    """A_jk - A_ik - A_ij + A_ii >= 0 over all distinct triples.

    Passing for every triple is equivalent to supermodularity of all the
    dimension-reduced slices of V(x) = x'Ax, hence to substitutability of
    the induced choice model when n = 3.
    """

    triples: tuple
    passed: bool

    @property
    def failing(self) -> tuple:
        return tuple(t for t in self.triples if not t.passed)


def quadratic_criterion(A: Sequence[Sequence[float]]) -> QuadraticCriterionReport:
    A = as_symmetric(A, "A")
    n = A.shape[0]
    checks = []
    for i in range(n):
        for j, k in itertools.combinations([m for m in range(n) if m != i], 2):
            margin = float(A[j, k] - A[i, k] - A[i, j] + A[i, i])
            checks.append(TripleCheck(center=i, pair=(j, k), margin=margin))
    return QuadraticCriterionReport(triples=tuple(checks),
                                    passed=all(t.passed for t in checks))


@dataclass(frozen=True)
class ReducedRegularizer:
    """Slice of V with coordinate `index` eliminated via the simplex equation.

    value(z) = V(z_1, .., z_{index-1}, 1 - sum z, z_index, .., z_{n-2}) on
    {z >= 0, sum z <= 1}, +inf outside, where V is never evaluated. The
    eliminated coordinate absorbs the simplex constraint so lattice
    operations on z are meaningful. `value` broadcasts over (..., n - 1).
    """

    index: int
    n: int
    value: Callable[[np.ndarray], np.ndarray]


def reduced_regularizer(reg: Regularizer, index: int) -> ReducedRegularizer:
    if not 0 <= index < reg.n:
        raise ValueError("index out of range")
    n = reg.n

    def value(z):
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (n - 1,):
            raise ValueError(f"expected {n - 1} coordinates")
        total = np.sum(z, axis=-1)
        inside = ~((np.min(z, axis=-1) < 0.0) | (total > 1.0))
        out = np.full(total.shape, np.inf)
        x = np.insert(z, index, 1.0 - total, axis=-1)[inside]
        out[inside] = batch_value(reg, x)
        return out[()]

    return ReducedRegularizer(index=index, n=n, value=value)


@dataclass(frozen=True)
class ModularityReport:
    """Sampled lattice-inequality test.

    verdict is one of "supermodular-consistent", "submodular-consistent",
    "modular-consistent" (both inequalities held everywhere), or "neither".
    Consistency means no counterexample among the sampled pairs; that is
    evidence, never proof.
    """

    verdict: str
    samples_used: int
    supermodular_violation: float
    submodular_violation: float
    supermodular_witness: Optional[tuple]
    submodular_witness: Optional[tuple]


def check_modularity(f: Callable[[np.ndarray], np.ndarray],
                     domain_sampler: Callable[[np.random.Generator, int], np.ndarray],
                     samples: int = 1000, seed: int = 0) -> ModularityReport:
    """Test f(x v y) + f(x ^ y) >= / <= f(x) + f(y) on sampled pairs.

    Sampled pairs themselves must lie in the effective domain (non-finite
    f(x) or f(y) triggers a resample), but join and meet values use
    extended arithmetic: a +inf at the join never falsifies
    supermodularity, while it does falsify submodularity. That matches the
    asymmetric typing of the two properties (supermodular functions may
    take +inf, submodular ones -inf).

    Pairs go in blocks of at most `_DRAW_BLOCK`: `domain_sampler(rng, size)`
    returns points of shape (size, d), x then y for each pair, and f maps
    (..., d) to (...). A block is one call of f for its pairs, one per round
    of redraws of its non-finite pairs (a pair is dropped after MAX_RESAMPLES
    draws) and one for joins and meets. A pair whose lattice sum is NaN is
    used but tests nothing. Each witness is the first largest violation.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = stream_rng(seed)

    def draw(size):
        pairs = np.asarray(domain_sampler(rng, 2 * size), dtype=float)
        pairs = pairs.reshape(size, 2, pairs.shape[-1])
        return pairs, _evaluate(f, pairs)

    viol, wit = [0.0, 0.0], [None, None]  # supermodular, submodular
    used = 0
    for start in range(0, samples, _DRAW_BLOCK):
        pairs, values = draw(min(_DRAW_BLOCK, samples - start))
        bad = ~np.all(np.isfinite(values), axis=1)
        for _round in range(MAX_RESAMPLES - 1):
            if not bad.any():
                break
            pairs[bad], values[bad] = draw(np.count_nonzero(bad))
            bad[bad] = ~np.all(np.isfinite(values[bad]), axis=1)
        pairs, plain = pairs[~bad], values[~bad].sum(axis=1)
        used += len(pairs)
        if not len(pairs):
            continue
        lattice = np.stack([pairs.max(axis=1), pairs.min(axis=1)], axis=1)
        lattice = _evaluate(f, lattice).sum(axis=1)
        for side, gap in enumerate((plain - lattice, lattice - plain)):
            # a NaN lattice sum tests nothing
            k = np.argmax(np.where(np.isnan(lattice), -np.inf, gap))
            if gap[k] > max(viol[side], LATTICE_TOL):
                viol[side], wit[side] = float(gap[k]), (pairs[k, 0].copy(), pairs[k, 1].copy())
    sup_ok, sub_ok = (v <= LATTICE_TOL for v in viol)
    if sup_ok and sub_ok:
        verdict = "modular-consistent"
    elif sup_ok:
        verdict = "supermodular-consistent"
    elif sub_ok:
        verdict = "submodular-consistent"
    else:
        verdict = "neither"
    return ModularityReport(verdict, used, *viol, *wit)


def corner_simplex_sampler(n: int) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Uniform sampler of `size` points of {z >= 0, sum z <= 1 - CORNER_MARGIN}
    in n-1 variables, shape (size, n - 1).

    Uniformity comes from sampling the full simplex with a slack coordinate
    and dropping the slack.
    """
    return lambda rng, size: rng.dirichlet(np.ones(n), size)[:, : n - 1] * (1.0 - CORNER_MARGIN)


def utility_box_sampler(n: int, box: float
                        ) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Uniform sampler of `size` points of [-box, box]^n, shape (size, n)."""
    return lambda rng, size: rng.uniform(-box, box, (size, n))


@dataclass(frozen=True)
class SubstitutabilityReport:
    """Combined verdict from lattice sampling and pairwise classification."""

    verdict: str                      # "substitutable-consistent" or "violation"
    submodularity: ModularityReport
    complementary_witness: Optional[PairClassification]
    witness_mu: Optional[np.ndarray]
    points_tested: int


def substitutable_model_check(model: WelfareModel, samples: int = 1000,
                              box: float = 10.0, seed: int = 0,
                              span_probes: int | None = None) -> SubstitutabilityReport:
    """Look for substitutability violations: a submodularity counterexample
    for w, or a complementary off-diagonal pair at a sampled point.

    Candidate points mix uniform box draws with utilities that realize
    random interior choice targets (via choice inversion). The inverted
    points always lie in the full-support pattern, which box sampling can
    miss almost entirely for badly conditioned models and which is where
    the quadratic family hides its complementary pairs.

    "substitutable-consistent" means no violation was found.
    """
    from .duality import RESIDUAL_TOL, ConvergenceError, invert_choice

    sub_report = check_modularity(model.value, utility_box_sampler(model.n, box),
                                  samples=samples, seed=seed)
    rows, cols = np.triu_indices(model.n, 1)  # the pairs i < j in lexicographic order
    points = max(1, samples // max(1, rows.size))
    box_points = stream_rng(seed, key=1).uniform(-box, box, (points, model.n))
    if span_probes is None:
        span_probes = max(10, min(50, samples // 20))
    targets = stream_rng(seed, key=2).dirichlet(np.ones(model.n), span_probes)
    # the targets the ascent reaches; a model error skips them all
    try:
        probes = invert_choice(model, targets * 0.9 + 0.1 / model.n)
    except ConvergenceError as exc:
        probes = exc.best[exc.residual <= RESIDUAL_TOL]
    except (ValueError, ArithmeticError):
        probes = targets[:0]
    candidates = np.concatenate([box_points, probes])

    witness = witness_mu = None
    tested = len(candidates) * rows.size
    for start in range(0, len(candidates), _DRAW_BLOCK):
        block = candidates[start:start + _DRAW_BLOCK]
        # entry (c, t) is `classify_pair(model, block[c], rows[t], cols[t]).estimate`
        estimates = _cross_effects(model, block)[:, rows, cols]
        found = np.argwhere(estimates > DEAD_ZONE)
        if found.size:
            c, t = found[0]
            tested = int((start + c) * rows.size + t + 1)
            witness = PairClassification(int(rows[t]), int(cols[t]), float(estimates[c, t]),
                                         COMPLEMENTARY)
            witness_mu = block[c]
            break
    consistent = witness is None and sub_report.submodular_violation <= LATTICE_TOL
    return SubstitutabilityReport("substitutable-consistent" if consistent else "violation",
                                  sub_report, witness, witness_mu, tested)
