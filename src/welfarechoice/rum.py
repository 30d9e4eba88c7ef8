"""Random utility simulation and consistency testing.

Monte Carlo choice probabilities and welfare under argmax-of-noisy-utility
sampling, the exact two-alternative noise construction that reproduces any
welfare function from a single scalar random variable, and the
alternating-sign test on mixed partial derivatives that separates
welfare models with a random-utility representation from those without.

One tally gives both: `_tally` reduces draws laid out (n, size), one
contiguous row per alternative, against a point to winner counts and the
sums of the row maximum and its square, in elementwise passes that add and
compare the same numbers as `np.max` and `np.argmax`. `mc_estimates` draws
each partition once for a stack of points.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (NumericError, as_utility_of, mc_partitions, normal_quantile,
                   positive_scale, stream_rng)
from .welfare import (SignTestReport, WelfareModel, _sign_test, batch_gradient,
                      pointwise)

THREADS_ENV = "WELFARECHOICE_THREADS"
XI_TOL = 1e-12
BRACKET_CAP = 1e6
_VALIDATION_GRID = 201


@dataclass(frozen=True)
class NoiseSampler:
    """Noise distribution for random-utility simulation.

    `draw(rng, size)` returns a (size, n) array, which the Monte Carlo code
    reads column by column, from a contiguous copy of `eps.T`. All built-in
    families are generated by inverse-CDF transforms of uniforms, applied in
    place to the uniforms' array, so a stream's draws are fully determined by
    its generator state.
    """

    n: int
    family: str
    draw: Callable[[np.random.Generator, int], np.ndarray]


def gumbel_sampler(eta: float, n: int) -> NoiseSampler:
    """iid Gumbel(scale eta, location 0): eps = -eta log(-log U)."""
    positive_scale(eta, "eta")

    def draw(rng, size):
        u = rng.random((size, n))
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        u *= -eta
        return u

    return NoiseSampler(n=n, family=f"gumbel(eta={eta:g})", draw=draw)


def normal_sampler(sd: float, n: int) -> NoiseSampler:
    """iid centered normal noise."""
    positive_scale(sd, "sd")

    def draw(rng, size):
        z = normal_quantile(rng.random((size, n)))
        z *= sd
        return z

    return NoiseSampler(n=n, family=f"normal(sd={sd:g})", draw=draw)


def logistic_sampler(scale: float, n: int) -> NoiseSampler:
    """iid centered logistic noise."""
    positive_scale(scale, "scale")

    def draw(rng, size):
        u = rng.random((size, n))
        upper = np.negative(u)
        np.log1p(upper, out=upper)
        np.log(u, out=u)
        u -= upper
        u *= scale
        return u

    return NoiseSampler(n=n, family=f"logistic(scale={scale:g})", draw=draw)


def degenerate_sampler(n: int) -> NoiseSampler:
    """Noise identically zero (welfare reduces to max_i mu_i)."""
    return NoiseSampler(n=n, family="degenerate",
                        draw=lambda rng, size: np.zeros((size, n)))


def _thread_count() -> int:
    try:
        val = int(os.environ.get(THREADS_ENV, "1"))
    except ValueError:
        val = 1
    if val == 0:
        return os.cpu_count() or 1
    return max(1, val)


def _run_partitions(worker, seed: int, samples: int) -> list:
    """Evaluate `worker(rng, size)` on every fixed partition, in index order.

    Partition index -> stream mapping is fixed, and results are reduced in
    index order, so the output is independent of the thread count.
    """
    parts = list(mc_partitions(samples))
    threads = _thread_count()

    def run_one(part):
        idx, start, stop = part
        return worker(stream_rng(seed, idx), stop - start)

    if threads == 1 or len(parts) == 1:
        return [run_one(p) for p in parts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_one, parts))


def _tally(mu: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Winner counts of mu + eps (ties to the lowest index, as `np.argmax`) and
    the sums of the row maximum m and of m^2, from draws `cols` of shape (n, size)."""
    m = cols[0] + mu[0]
    for i in range(1, mu.size):
        np.maximum(m, cols[i] + mu[i], out=m)
    undecided = np.ones(m.shape, dtype=bool)
    counts = np.zeros(mu.size, dtype=np.int64)
    for i in range(mu.size):
        won = (cols[i] + mu[i] == m) & undecided
        counts[i] = np.count_nonzero(won)
        undecided ^= won
    if undecided.any():
        raise NumericError("noise draws contain NaN: a draw has no largest alternative")
    with np.errstate(over="ignore", invalid="ignore"):  # read only via `_finite`'s caller
        return counts, float(np.sum(m)), float(np.sum(m * m))


@dataclass(frozen=True)
class MCProbabilities:
    probs: np.ndarray
    std_errors: np.ndarray
    samples: int
    seed: int


@dataclass(frozen=True)
class MCWelfare:
    value: float
    std_error: float
    samples: int
    seed: int


def _estimates(tallies, samples: int, seed: int) -> tuple[MCProbabilities, MCWelfare]:
    """A point's estimates from its tallies, summed in partition order."""
    counts, total, total_sq = 0, 0.0, 0.0
    for c, s, sq in tallies:
        counts, total, total_sq = counts + c, total + s, total_sq + sq
    p = counts / samples
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return (MCProbabilities(probs=p, std_errors=np.sqrt(p * (1.0 - p) / samples),
                            samples=samples, seed=seed),
            MCWelfare(value=mean, std_error=np.sqrt(var / samples),
                      samples=samples, seed=seed))


def _finite(mean_max: float) -> float:
    if not np.isfinite(mean_max):
        raise NumericError("noise draws are infinite: the mean maximum is undefined")
    return mean_max


def mc_estimates(sampler: NoiseSampler, points, samples: int,
                 seed: int) -> list[tuple[MCProbabilities, MCWelfare]]:
    """Choice probabilities and welfare at each of a stack of points.

    Each partition is drawn once and tallied against every point, so a
    point's estimates are the ones a run at that point alone gives.
    """
    mus = [as_utility_of(mu, sampler.n) for mu in points]

    def worker(rng, size):
        # one copy, then every point's passes read each row in order
        cols = np.ascontiguousarray(sampler.draw(rng, size).T)
        return [_tally(mu, cols) for mu in mus]

    return [_estimates(tallies, samples, seed)
            for tallies in zip(*_run_partitions(worker, seed, samples))]


def mc_choice_probs(sampler: NoiseSampler, mu, samples: int,
                    seed: int) -> MCProbabilities:
    """Empirical argmax frequencies of mu + eps (ties to the lowest index)."""
    return mc_estimates(sampler, [mu], samples, seed)[0][0]


def mc_welfare(sampler: NoiseSampler, mu, samples: int, seed: int) -> MCWelfare:
    """Sample mean of max_i(mu_i + eps_i) with its standard error."""
    welfare = mc_estimates(sampler, [mu], samples, seed)[0][1]
    return replace(welfare, value=_finite(welfare.value))


class InvalidBinaryWelfareError(ValueError):
    """The welfare slice v'(x) is not a CDF on the validation grid."""


@dataclass(frozen=True)
class BinaryRUMConstruction:
    """Exact two-alternative noise construction for a welfare function.

    The slice v(x) = w(x, 0) has derivative v'(x) in [0, 1], nondecreasing;
    it is used as the CDF of a scalar variable xi, and the noise pair is
    eps = (v0 - max(xi, 0), v0 - max(-xi, 0)) with v0 = w(0, 0). The
    expected maximum of mu + eps then reproduces w(mu) exactly.
    """

    model: WelfareModel
    v0: float
    xi_cdf: Callable[[np.ndarray], np.ndarray]
    bracket: float
    truncated: bool

    def sample_xi(self, uniforms: np.ndarray) -> np.ndarray:
        """Invert the CDF at each uniform by bisection on [-T, T]."""
        u = np.asarray(uniforms, dtype=float)
        lo = np.full(u.shape, -self.bracket)
        hi = np.full(u.shape, self.bracket)
        # fixed iteration count: halves the bracket below XI_TOL for any T
        iters = int(np.ceil(np.log2(2.0 * self.bracket / XI_TOL))) + 1
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = self.xi_cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def noise_from_xi(self, xi: np.ndarray) -> np.ndarray:
        eps1 = self.v0 - np.maximum(xi, 0.0)
        eps2 = self.v0 - np.maximum(-xi, 0.0)
        return np.stack([eps1, eps2], axis=-1)

    def sampler(self) -> NoiseSampler:
        def draw(rng, size):
            xi = self.sample_xi(rng.random(size))
            return self.noise_from_xi(xi)

        return NoiseSampler(n=2, family="binary-construction", draw=draw)


def binary_rum_from_welfare(model: WelfareModel) -> BinaryRUMConstruction:
    """Build the exact two-alternative noise representation of a welfare model.

    Validates that x -> dw/dmu_1 (x, 0) is nondecreasing with range inside
    [0, 1]; grows the inversion bracket geometrically until the CDF is
    within 1e-9 of {0, 1} at the ends, capping at BRACKET_CAP with the
    truncation flagged.
    """
    if model.n != 2:
        raise ValueError("the construction applies to two-alternative models")
    v0 = model.value(np.zeros(2))

    def xi_cdf(x):
        x = np.asarray(x, dtype=float)
        return batch_gradient(model, np.stack([x, np.zeros_like(x)], axis=-1))[..., 0]

    vals = xi_cdf(np.linspace(-30.0, 30.0, _VALIDATION_GRID))
    if np.any(np.diff(vals) < -1e-10):
        raise InvalidBinaryWelfareError("v'(x) is decreasing on the grid")
    if np.min(vals) < -1e-10 or np.max(vals) > 1.0 + 1e-10:
        raise InvalidBinaryWelfareError("v'(x) leaves [0, 1] on the grid")

    bracket = 1.0
    while True:
        lo_val, hi_val = xi_cdf(np.array([-bracket, bracket]))
        truncated = not (lo_val <= 1e-9 and hi_val >= 1.0 - 1e-9)
        if not truncated or bracket >= BRACKET_CAP:
            break
        bracket = min(bracket * 2.0, BRACKET_CAP)

    return BinaryRUMConstruction(model=model, v0=v0, xi_cdf=xi_cdf,
                                 bracket=bracket, truncated=truncated)


def rum_sign_test(model: WelfareModel, max_order: int,
                  points: Sequence) -> SignTestReport:
    """Check (-1)^k * (mixed partial of order k) <= 0 for k = 2..max_order."""
    if max_order not in (2, 3):
        raise ValueError("max_order must be 2 or 3")
    return _sign_test(model.value, [as_utility_of(p, model.n) for p in points],
                      range(2, max_order + 1))


def mc_welfare_model(sampler: NoiseSampler, samples: int, seed: int) -> WelfareModel:
    """Welfare model backed by a frozen Monte Carlo noise panel.

    The same draws serve every evaluation (common random numbers), so
    finite-difference stencils of the choice probabilities difference out
    the sampling noise instead of being swamped by it.
    """
    panel = np.empty((sampler.n, samples))  # one row of draws per alternative
    for idx, start, stop in mc_partitions(samples):
        panel[:, start:stop] = sampler.draw(stream_rng(seed, idx), stop - start).T

    # one point at a time, as broadcasting would build a (points, samples)
    # array per pass; value and gradient share the last point's key and tally
    last = [None, None]

    def tally(mu):
        mu = as_utility_of(mu, sampler.n)
        if last[0] != mu.tobytes():
            last[:] = mu.tobytes(), _tally(mu, panel)
        return last[1]

    return WelfareModel(n=sampler.n, name=f"mc[{sampler.family}]",
                        value=pointwise(lambda mu: _finite(tally(mu)[1] / samples)),
                        gradient=pointwise(lambda mu: tally(mu)[0] / samples))
