"""Substitutability and complementarity analysis.

Pairwise classification asks whether raising the utility of alternative i
locally raises or lowers the choice probability of alternative j. Every
alternative is complementary to itself (a consequence of convexity of the
welfare function); off-diagonal signs distinguish model families. The
quadratic-matrix criterion, the dimension-reduced regularizer slices, and
the sampled lattice (super/submodularity) tests provide the structural
counterparts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import as_symmetric, as_utility, finite_diff_jacobian, stream_rng
from .ram import Regularizer
from .welfare import WelfareModel, batch_gradient

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
    mu = as_utility(mu)
    est = float(finite_diff_jacobian(model.gradient, mu, STEP, columns=[i])[j, 0])
    if i == j:
        return PairClassification(i=i, j=j, estimate=est, label=COMPLEMENTARY)
    return PairClassification(i=i, j=j, estimate=est, label=_label(est, dead_zone))


@dataclass(frozen=True)
class SubstitutionReport:
    """Pairwise classification matrix at a single utility point."""

    mu: np.ndarray
    labels: np.ndarray        # (n, n) array of label strings
    estimates: np.ndarray     # (n, n) cross-partial estimates
    symmetric: bool


def _cross_effects(model: WelfareModel, mu) -> np.ndarray:
    """dq_j/dmu_i at entry (i, j): one Jacobian of the choice map, from one
    gradient call on 2n points, whose column i is computed exactly as
    `classify_pair` computes it."""
    return finite_diff_jacobian(model.gradient, as_utility(mu), STEP).T


def substitution_report(model: WelfareModel, mu) -> SubstitutionReport:
    """All-pairs classification; flags whether estimates are symmetric.

    Entry (i, j) equals `classify_pair(model, mu, i, j)`; one Jacobian of
    the choice map serves every pair.
    """
    mu = as_utility(mu)
    n = model.n
    estimates = _cross_effects(model, mu)
    labels = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            labels[i, j] = (COMPLEMENTARY if i == j
                            else _label(estimates[i, j], DEAD_ZONE))
    tol = SYMMETRY_REL_TOL * max(1.0, abs(model.value(mu)))
    symmetric = bool(np.max(np.abs(estimates - estimates.T)) <= tol)
    return SubstitutionReport(mu=mu, labels=labels, estimates=estimates,
                              symmetric=symmetric)


@dataclass(frozen=True)
class ScanRow:
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
    mu_base = as_utility(mu_base)
    grid = np.linspace(lo, hi, steps)
    points = np.tile(mu_base, (steps, 1))
    points[:, i] = grid
    q_vals = batch_gradient(model, points)[:, j]
    slopes = (q_vals[2:] - q_vals[:-2]) / (2.0 * (grid[1] - grid[0]))
    labels = [INDETERMINATE, *(_label(s, DEAD_ZONE) for s in slopes), INDETERMINATE]
    return [ScanRow(mu_i=float(t), q_j=q, label=label)
            for t, q, label in zip(grid, q_vals, labels)]


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
    {z >= 0, sum z <= 1}, +inf outside. The eliminated coordinate absorbs
    the simplex constraint so lattice operations on z are meaningful.
    """

    index: int
    n: int
    value: Callable[[np.ndarray], float]


def reduced_regularizer(reg: Regularizer, index: int) -> ReducedRegularizer:
    if not 0 <= index < reg.n:
        raise ValueError("index out of range")
    n = reg.n

    def value(z):
        z = np.asarray(z, dtype=float)
        if z.size != n - 1:
            raise ValueError(f"expected {n - 1} coordinates")
        total = float(np.sum(z))
        if np.min(z) < 0.0 or total > 1.0:
            return np.inf
        x = np.insert(z, index, 1.0 - total)
        return float(reg.value(x))

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


def check_modularity(f: Callable[[np.ndarray], float],
                     domain_sampler: Callable[[np.random.Generator], np.ndarray],
                     samples: int = 1000, seed: int = 0) -> ModularityReport:
    """Test f(x v y) + f(x ^ y) >= / <= f(x) + f(y) on sampled pairs.

    Sampled pairs themselves must lie in the effective domain (non-finite
    f(x) or f(y) triggers a resample), but join and meet values use
    extended arithmetic: a +inf at the join never falsifies
    supermodularity, while it does falsify submodularity. That matches the
    asymmetric typing of the two properties (supermodular functions may
    take +inf, submodular ones -inf).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = stream_rng(seed)
    sup_viol = 0.0
    sub_viol = 0.0
    sup_wit = None
    sub_wit = None
    used = 0
    for _ in range(samples):
        for _attempt in range(MAX_RESAMPLES):
            x = np.asarray(domain_sampler(rng), dtype=float)
            y = np.asarray(domain_sampler(rng), dtype=float)
            fx, fy = f(x), f(y)
            if np.isfinite(fx) and np.isfinite(fy):
                break
        else:
            continue
        used += 1
        join = np.maximum(x, y)
        meet = np.minimum(x, y)
        lattice = f(join) + f(meet)
        plain = fx + fy
        if np.isnan(lattice):
            continue
        if plain - lattice > max(sup_viol, LATTICE_TOL):
            sup_viol = plain - lattice
            sup_wit = (x, y)
        if lattice - plain > max(sub_viol, LATTICE_TOL):
            sub_viol = lattice - plain
            sub_wit = (x, y)
    sup_ok = sup_viol <= LATTICE_TOL
    sub_ok = sub_viol <= LATTICE_TOL
    if sup_ok and sub_ok:
        verdict = "modular-consistent"
    elif sup_ok:
        verdict = "supermodular-consistent"
    elif sub_ok:
        verdict = "submodular-consistent"
    else:
        verdict = "neither"
    return ModularityReport(verdict=verdict, samples_used=used,
                            supermodular_violation=sup_viol,
                            submodular_violation=sub_viol,
                            supermodular_witness=sup_wit,
                            submodular_witness=sub_wit)


def corner_simplex_sampler(n: int) -> Callable[[np.random.Generator], np.ndarray]:
    """Uniform sampler over {z >= 0, sum z <= 1 - CORNER_MARGIN} in n-1 variables.

    Uniformity comes from sampling the full simplex with a slack coordinate
    and dropping the slack.
    """

    def sample(rng):
        z = rng.dirichlet(np.ones(n))[: n - 1]
        return z * (1.0 - CORNER_MARGIN)

    return sample


def utility_box_sampler(n: int, box: float
                        ) -> Callable[[np.random.Generator], np.ndarray]:
    def sample(rng):
        return rng.uniform(-box, box, n)

    return sample


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
    from .duality import ConvergenceError, invert_choice

    sub_report = check_modularity(model.value, utility_box_sampler(model.n, box),
                                  samples=samples, seed=seed)
    rng = stream_rng(seed, key=1)
    pairs = list(itertools.combinations(range(model.n), 2))
    candidates = []
    points = max(1, samples // max(1, len(pairs)))
    for _ in range(points):
        candidates.append(rng.uniform(-box, box, model.n))
    if span_probes is None:
        span_probes = max(10, min(50, samples // 20))
    rng_span = stream_rng(seed, key=2)
    for _ in range(span_probes):
        target = rng_span.dirichlet(np.ones(model.n)) * 0.9 + 0.1 / model.n
        try:
            candidates.append(invert_choice(model, target))
        except (ConvergenceError, ValueError, ArithmeticError):
            continue

    witness = None
    witness_mu = None
    tested = 0
    for mu in candidates:
        # entry (i, j) is `classify_pair(model, mu, i, j).estimate`
        estimates = _cross_effects(model, mu)
        for i, j in pairs:
            tested += 1
            est = float(estimates[i, j])
            if _label(est, DEAD_ZONE) == COMPLEMENTARY:
                witness = PairClassification(i=i, j=j, estimate=est, label=COMPLEMENTARY)
                witness_mu = mu
                break
        if witness is not None:
            break
    sub_ok = sub_report.submodular_violation <= LATTICE_TOL
    verdict = ("substitutable-consistent"
               if sub_ok and witness is None else "violation")
    return SubstitutabilityReport(verdict=verdict, submodularity=sub_report,
                                  complementary_witness=witness,
                                  witness_mu=witness_mu, points_tested=tested)
