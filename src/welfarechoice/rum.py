"""Random utility simulation and consistency testing.

Monte Carlo choice probabilities and welfare under argmax-of-noisy-utility
sampling, the exact two-alternative noise construction that reproduces any
welfare function from a single scalar random variable, and the
alternating-sign test on mixed partial derivatives that separates
welfare models with a random-utility representation from those without.

One estimator: `_tally` reduces a partition's draws, laid out (n, size), to
winner counts and the sums of the row maximum and its square at a point,
comparing and adding as `np.max` and `np.argmax` do; `_run` draws each
partition once for a stack of points and adds its tallies in partition order.
`mc_estimates` and `mc_welfare_model` both read `_run`, which keeps its last
run by `core.keep_last` (as `ram` keeps the solve `solve_ram` and `ram_welfare`
share). So `mc_choice_probs` then `mc_welfare` with one sampler, point, samples
and seed simulate once, and a model's `value` and `gradient` at one stack
share one run. A new stack draws every partition again from its fixed stream,
so memory is bounded per running partition (O(MC_CHUNK n)), not by `samples`;
both rest on `NoiseSampler.draw` being a function of `(rng, size)` alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (NumericError, as_utilities, as_utility_of, keep_last, mc_partitions,
                   normal_quantile, positive_scale, refuse_non_finite, stream_rng)
from .duality import inverse_from_V
from .welfare import SignTestReport, WelfareModel, _sign_test, batch_gradient

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
    its generator state. `draw` must be a function of `(rng, size)` alone, as
    the built-ins are: equal samplers share the kept run of `rum._run`, and a
    `mc_welfare_model` draws its common random numbers again for each stack.
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
        return 1
    return (os.cpu_count() or 1) if val == 0 else max(1, val)


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


def _tally(mu: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Winner counts of mu + eps (ties to the lowest index, as `np.argmax`), then
    the sums of the row maximum m and of m^2, from draws `cols` of shape (n, size)."""
    m = cols[0] + mu[0]
    for i in range(1, mu.size):
        np.maximum(m, cols[i] + mu[i], out=m)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf sum is refused by the caller
        total, total_sq = float(np.sum(m)), float(np.sum(m * m))
    # a NaN draw makes its maximum NaN, and so the sum; inf - inf does too
    if np.isnan(total) and np.isnan(m).any():
        raise NumericError("noise draws contain NaN: a draw has no largest alternative")
    undecided = np.ones(m.shape, dtype=bool)
    row = np.empty(mu.size + 2)  # counts, exact as floats below 2^53, then the sums
    for i in range(mu.size - 1):
        won = (cols[i] + mu[i] == m) & undecided
        row[i] = np.count_nonzero(won)
        undecided ^= won
    row[-3] = m.size - row[:-3].sum()  # the last wins the draws the others leave
    row[-2:] = total, total_sq
    return row


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


@keep_last
def _run(sampler: NoiseSampler, samples: int, seed: int, stack: np.ndarray) -> tuple:
    """(probs (m, n), E max (m,), E max^2 (m,)) at a stack of points (m, n): each
    partition is drawn once, and its tallies are added in partition order."""
    def worker(rng, size):
        # one copy, then every point's passes read each row in order
        cols = np.ascontiguousarray(sampler.draw(rng, size).T)
        return [_tally(mu, cols) for mu in stack]

    sums = np.zeros((len(stack), sampler.n + 2))
    for tallies in _run_partitions(worker, seed, samples) if len(stack) else ():
        sums += tallies
    sums /= samples
    return sums[:, :-2], sums[:, -2], sums[:, -1]


def mc_estimates(sampler: NoiseSampler, points, samples: int,
                 seed: int) -> list[tuple[MCProbabilities, MCWelfare]]:
    """Choice probabilities and welfare at each of a stack of points.

    Each partition is drawn once and tallied against every point, so a
    point's estimates are the ones a run at that point alone gives. The
    last run is kept by `core.keep_last`: an equal sampler with the same
    points, samples and seed is not drawn again, each call gets its own
    arrays, and a run that raises is not kept.
    """
    stack = np.array([as_utility_of(mu, sampler.n) for mu in points])
    probs, means, mean_sqs = _run(sampler, samples, seed, stack)
    return [(MCProbabilities(probs=p, std_errors=np.sqrt(p * (1.0 - p) / samples),
                             samples=samples, seed=seed),
             MCWelfare(value=mean, std_error=np.sqrt(max(sq - mean * mean, 0.0) / samples),
                       samples=samples, seed=seed))
            for p, mean, sq in zip(probs.copy(), means.tolist(), mean_sqs.tolist())]


def mc_choice_probs(sampler: NoiseSampler, mu, samples: int,
                    seed: int) -> MCProbabilities:
    """Empirical argmax frequencies of mu + eps (ties to the lowest index)."""
    return mc_estimates(sampler, [mu], samples, seed)[0][0]


def mc_welfare(sampler: NoiseSampler, mu, samples: int, seed: int) -> MCWelfare:
    """Sample mean of max_i(mu_i + eps_i) with its standard error, each refused unless finite."""
    welfare = mc_estimates(sampler, [mu], samples, seed)[0][1]
    refuse_non_finite("the mean maximum or its standard error",
                      [welfare.value, welfare.std_error], [mu])
    return welfare


class InvalidBinaryWelfareError(ValueError):
    """The welfare slice v'(x) is not a CDF on the validation grid."""


@dataclass(frozen=True)
class BinaryRUMConstruction:
    """Exact two-alternative noise construction for a welfare function.

    The slice v(x) = w(x, 0) has derivative v'(x) in [0, 1], nondecreasing;
    it is used as the CDF of a scalar variable xi, and the noise pair is
    eps = (v0 - max(xi, 0), v0 - max(-xi, 0)) with v0 = w(0, 0). The
    expected maximum of mu + eps then reproduces w(mu) exactly. `bracket`,
    the T of the interval [-T, T] the CDF is inverted on, is None for a
    model whose xi is read from its V.
    """

    model: WelfareModel
    v0: float
    bracket: float | None
    truncated: bool

    def xi_cdf(self, x) -> np.ndarray:
        """v'(x) = q_1(x, 0), the CDF of xi."""
        return self._q(x)[..., 0]

    def sample_xi(self, uniforms: np.ndarray) -> np.ndarray:
        """Invert the CDF at each uniform u: xi = V_1 - V_2 at (u, 1 - u), as
        q(xi, 0) = (u, 1 - u), when `bracket` is None, else `_invert_cdf`."""
        u = np.asarray(uniforms, dtype=float)
        if self.bracket is None:
            y = inverse_from_V(self.model.regularizer, np.stack([u, 1.0 - u], axis=-1))
            return y[..., 0] - y[..., 1]
        return self._invert_cdf(u.ravel()).reshape(u.shape)

    def _q(self, x) -> np.ndarray:
        """q at (x, 0), both coordinates, in one call."""
        x = np.asarray(x, dtype=float)
        return batch_gradient(self.model, np.stack([x, np.zeros_like(x)], axis=-1))

    def _bracket(self, u: np.ndarray):
        """Each u's bracket and start from one call tabulating q at 0 and +-2^k.

        Returns xi with -T for a u below the table's range and T above it,
        the pending draws, and for each of them the start x, the bracket
        [lo, hi], the coordinate read (q_1 below the median, q_2 above it),
        the sign that makes the residual sign * (q - target) rise in x, and
        the target u or 1 - u.
        """
        T = self.bracket
        half = np.minimum(2.0 ** np.arange(-3.0, np.ceil(np.log2(T)) + 1.0), T)
        nodes = np.concatenate([-half[::-1], [0.0], half])
        table = self._q(nodes)
        upper = u >= 0.5
        target = np.where(upper, 1.0 - u, u)
        sign = np.where(upper, -1.0, 1.0)
        i = np.where(upper, np.searchsorted(-table[:, 1], -target),
                     np.searchsorted(table[:, 0], target))
        ends = np.stack([np.maximum(i - 1, 0), np.minimum(i, nodes.size - 1)])
        lo, hi = nodes[ends]
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf: no start
            # the start interpolates log q, linear on exponential tails
            g_lo, g_hi = sign * np.log(table[ends, upper.astype(int)] / target)
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
        x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
        pending = np.flatnonzero((i > 0) & (i < nodes.size))
        return (np.where(i == 0, lo, hi), pending,
                *(a[pending] for a in (x, lo, hi, upper, sign, target)))

    def _invert_cdf(self, u: np.ndarray) -> np.ndarray:
        """The root in [-T, T] of q_1(x, 0) = u, within XI_TOL, by safeguarded Newton.

        Below the median it solves q_1 = u, above it q_2 = 1 - u, so a tail
        keeps its digits; `_bracket` gives each u its bracket and start. Each
        step reads q at x -+ h, h = XI_TOL / 2, in one call: a residual <= 0
        at x - h and >= 0 at x + h ends the draw at x, and otherwise the side
        that missed tightens the bracket. The next x is the Newton step on
        log q (exact on exponential tails), or the bracket's midpoint when
        that step leaves the bracket or does not halve the one before (rtsafe,
        Numerical Recipes section 9.4). A bracket no wider than XI_TOL, or
        one that no midpoint splits, ends the draw at its midpoint.
        """
        h = 0.5 * XI_TOL
        xi, pending, x, lo, hi, upper, sign, target = self._bracket(u)
        step = hi - lo
        while pending.size:
            q = self._q(x[:, None] + np.array([-h, h]))
            q = np.where(upper[:, None], q[..., 1], q[..., 0])
            r = sign[:, None] * (q - target[:, None])
            straddle = (r[:, 0] <= 0.0) & (r[:, 1] >= 0.0)
            lo = np.where(r[:, 1] < 0.0, x + h, lo)
            hi = np.where(r[:, 0] < 0.0, hi, x - h)  # a NaN q counts as above, so hi moves
            with np.errstate(divide="ignore", invalid="ignore"):  # a flat or zero q: bisect
                qm = 0.5 * (q[:, 0] + q[:, 1])
                d = -np.log(qm / target) * 2.0 * h * qm / (q[:, 1] - q[:, 0])
            mid = 0.5 * (lo + hi)
            newton = (lo <= x + d) & (x + d <= hi) & (np.abs(d) <= 0.5 * np.abs(step))
            done = straddle | (hi - lo <= XI_TOL) | (mid <= lo) | (mid >= hi)
            xi[pending[done]] = np.where(straddle, x, mid)[done]
            keep = ~done
            pending, x, lo, hi, step, upper, sign, target = (
                a[keep] for a in (pending, np.where(newton, x + d, mid), lo, hi,
                                  np.where(newton, d, 0.5 * (hi - lo)), upper, sign, target))
        return xi

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
    [0, 1]. A model that carries its V needs no bracket; for any other
    the inversion bracket grows geometrically until the CDF is within 1e-9
    of {0, 1} at the ends, capping at BRACKET_CAP with the truncation flagged.
    """
    if model.n != 2:
        raise ValueError("the construction applies to two-alternative models")
    construction = BinaryRUMConstruction(model, model.value(np.zeros(2)),
                                         bracket=None, truncated=False)
    vals = construction.xi_cdf(np.linspace(-30.0, 30.0, _VALIDATION_GRID))
    if np.any(np.diff(vals) < -1e-10):
        raise InvalidBinaryWelfareError("v'(x) is decreasing on the grid")
    if np.min(vals) < -1e-10 or np.max(vals) > 1.0 + 1e-10:
        raise InvalidBinaryWelfareError("v'(x) leaves [0, 1] on the grid")
    if model.regularizer is not None:
        return construction

    bracket = 1.0
    while True:
        lo_val, hi_val = construction.xi_cdf(np.array([-bracket, bracket]))
        truncated = not (lo_val <= 1e-9 and hi_val >= 1.0 - 1e-9)
        if not truncated or bracket >= BRACKET_CAP:
            break
        bracket = min(bracket * 2.0, BRACKET_CAP)

    return replace(construction, bracket=bracket, truncated=truncated)


def rum_sign_test(model: WelfareModel, max_order: int,
                  points: Sequence) -> SignTestReport:
    """Check (-1)^k * (mixed partial of order k) <= 0 for k = 2..max_order."""
    if max_order not in (2, 3):
        raise ValueError("max_order must be 2 or 3")
    return _sign_test(model.value, [as_utility_of(p, model.n) for p in points],
                      range(2, max_order + 1))


def mc_welfare_model(sampler: NoiseSampler, samples: int, seed: int) -> WelfareModel:
    """Welfare model of a Monte Carlo run, on common random numbers.

    Every evaluation reads the same draws: a stack of points (..., n) is one
    `_run`, which draws each partition again from its fixed stream, so
    finite-difference stencils of the choice probabilities difference out
    the sampling noise instead of being swamped by it. `value` and
    `gradient` equal `mc_welfare(...).value` and `mc_choice_probs(...).probs`
    bit for bit, and at one stack share one run. Memory is bounded per
    running partition, whatever `samples` is; each new stack pays for its draws.
    """
    next(mc_partitions(samples))  # refuses samples < 1 now, not at the first call

    def estimates(points):
        mu = as_utilities(points, sampler.n)
        probs, means, _ = _run(sampler, samples, seed, mu.reshape(-1, sampler.n))
        return probs.reshape(mu.shape), means.reshape(mu.shape[:-1])

    return WelfareModel(n=sampler.n, name=f"mc[{sampler.family}]",
                        value=lambda mu: refuse_non_finite(
                            "the mean maximum", estimates(mu)[1], mu).copy()[()],
                        gradient=lambda mu: estimates(mu)[0].copy())
