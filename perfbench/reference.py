"""Reference computations made apart from the program under test.

Everything here uses the standard library only (`math`), so a fault in the
package's numpy code cannot also hide in its reference. Vectors are plain
sequences of floats.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

EULER_GAMMA = 0.5772156649015329


def logsumexp(a: Sequence[float]) -> float:
    m = max(a)
    return m + math.log(math.fsum(math.exp(v - m) for v in a))


def softmax(a: Sequence[float]) -> list[float]:
    m = max(a)
    z = [math.exp(v - m) for v in a]
    total = math.fsum(z)
    return [v / total for v in z]


def log_sum_welfare(W: Sequence[Sequence[float]], mu: Sequence[float]) -> float:
    """w(mu) = log sum_r exp((W mu)_r)."""
    return logsumexp([math.fsum(w * m for w, m in zip(row, mu)) for row in W])


def log_sum_probs(W: Sequence[Sequence[float]], mu: Sequence[float]) -> list[float]:
    """q = W' softmax(W mu)."""
    p = softmax([math.fsum(w * m for w, m in zip(row, mu)) for row in W])
    return [math.fsum(p[r] * W[r][i] for r in range(len(W)))
            for i in range(len(mu))]


def log_sum_cross_partial(W: Sequence[Sequence[float]], mu: Sequence[float],
                          i: int, j: int) -> float:
    """d^2 w / dmu_i dmu_j of the log-sum model, i != j.

    With p = softmax(W mu): sum_r p_r W_ri W_rj - q_i q_j.
    """
    p = softmax([math.fsum(w * m for w, m in zip(row, mu)) for row in W])
    q = log_sum_probs(W, mu)
    return math.fsum(p[r] * W[r][i] * W[r][j] for r in range(len(W))) - q[i] * q[j]


def brand_slice(t: float, mu2: float, mu3: float) -> tuple[float, float]:
    """(q_2, dq_2/dmu_1) of the brand model log(e^mu1 + e^mu2 + e^mu3 +
    e^((mu1 + mu2)/2)) at mu = (t, mu2, mu3), from its closed form."""
    m = max(t, mu2, mu3)
    a, b, c = math.exp(t - m), math.exp(mu2 - m), math.exp(mu3 - m)
    d = math.sqrt(a * b)
    s = a + b + c + d
    q2 = (b + 0.5 * d) / s
    return q2, (0.25 * d * s - (a + 0.5 * d) * (b + 0.5 * d)) / (s * s)


def entropy_neg(x: Sequence[float]) -> float:
    """sum_i x_i log x_i, the conjugate of the eta = 1 logit welfare."""
    return math.fsum(v * math.log(v) for v in x if v > 0.0)


def gumbel_expected_max(mu: Sequence[float], eta: float) -> float:
    """E max_i (mu_i + eps_i) for iid Gumbel(0, eta): eta*lse(mu/eta) + eta*gamma."""
    return eta * logsumexp([v / eta for v in mu]) + eta * EULER_GAMMA


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_binary_prob(mu1: float, mu2: float, sigma: float) -> float:
    """P(alternative 1 wins) under iid N(0, sigma^2) noise: Phi((mu1-mu2)/(sigma sqrt 2))."""
    return normal_cdf((mu1 - mu2) / (sigma * math.sqrt(2.0)))


# --- iid-noise random utility references by 1-D quadrature -----------------

def _gumbel_cdf(eta):
    return lambda t: math.exp(-math.exp(-t / eta)) if t > -30.0 * eta else 0.0


def _gumbel_pdf(eta):
    def pdf(t):
        if t < -30.0 * eta:
            return 0.0
        e = math.exp(-t / eta)
        return e * math.exp(-e) / eta
    return pdf


def _logistic_cdf(s):
    return lambda t: 1.0 / (1.0 + math.exp(-t / s)) if t > -700.0 * s else 0.0


def _logistic_pdf(s):
    def pdf(t):
        e = math.exp(-abs(t) / s)
        return e / (s * (1.0 + e) ** 2)
    return pdf


def _normal_cdf(sd):
    return lambda t: normal_cdf(t / sd)


def _normal_pdf(sd):
    return lambda t: math.exp(-0.5 * (t / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


NOISE = {
    "gumbel": (_gumbel_cdf, _gumbel_pdf),
    "logistic": (_logistic_cdf, _logistic_pdf),
    "normal": (_normal_cdf, _normal_pdf),
}

# Integration window and panel count for the Simpson rule below; the
# integrands are smooth and decay at least exponentially, so 400 panels
# over +-40 scale units give errors below 1e-8 (1e-9 against the closed
# forms tested), far inside a Monte Carlo standard error.
_HALF_WIDTH = 40.0
_PANELS = 400


def _simpson(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    h = (b - a) / panels
    odd = math.fsum(f(a + k * h) for k in range(1, panels, 2))
    even = math.fsum(f(a + k * h) for k in range(2, panels, 2))
    return (f(a) + f(b) + 4.0 * odd + 2.0 * even) * h / 3.0


def iid_choice_probs(family: str, scale: float, mu: Sequence[float]) -> list[float]:
    """P(i wins) = integral f(t) prod_{j != i} F(mu_i - mu_j + t) dt."""
    cdf_of, pdf_of = NOISE[family]
    F, f = cdf_of(scale), pdf_of(scale)
    lo, hi = -_HALF_WIDTH * scale, _HALF_WIDTH * scale
    out = []
    for i, mi in enumerate(mu):
        others = [mi - mj for j, mj in enumerate(mu) if j != i]

        def integrand(t, others=others):
            p = f(t)
            for d in others:
                p *= F(d + t)
            return p

        out.append(_simpson(integrand, lo, hi, _PANELS))
    return out


def iid_expected_max(family: str, scale: float, mu: Sequence[float]) -> float:
    """E max = integral_0^inf (1 - G) - integral_-inf^0 G with G(x) = prod F(x - mu_j)."""
    F = NOISE[family][0](scale)

    def G(x):
        p = 1.0
        for m in mu:
            p *= F(x - m)
        return p

    top = max(mu) + _HALF_WIDTH * scale
    bottom = min(mu) - _HALF_WIDTH * scale
    upper = _simpson(lambda x: 1.0 - G(x), 0.0, max(top, 0.0), _PANELS) if top > 0 else 0.0
    lower = _simpson(G, min(bottom, 0.0), 0.0, _PANELS) if bottom < 0 else 0.0
    return upper - lower


# --- separable RAM families: bisection on the simplex multiplier -----------

def bisect_multiplier(shares: Callable[[float], list[float]],
                      lo: float, hi: float) -> list[float]:
    """x(lam) with sum x(lam) = 1, by bisection; each share decreases in lam
    and the sum is above 1 at `lo` and below it at `hi`."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return shares(mid)
        if math.fsum(shares(mid)) > 1.0:
            lo = mid
        else:
            hi = mid


def log_barrier_solution(mu: Sequence[float]) -> list[float]:
    """argmax mu.x + sum log x_i: x_i = 1 / (lam - mu_i)."""
    top = max(mu)
    return bisect_multiplier(lambda lam: [1.0 / (lam - m) for m in mu],
                             top + 1e-12, top + len(mu) + 1.0)


def mdm_logistic_solution(mu: Sequence[float], scales: Sequence[float]) -> list[float]:
    """MDM with logistic(s_i) marginals: x_i = 1 / (1 + exp((lam - mu_i) / s_i))."""
    spread = 50.0 * max(scales)
    return bisect_multiplier(
        lambda lam: [1.0 / (1.0 + math.exp(min((lam - m) / s, 700.0)))
                     for m, s in zip(mu, scales)],
        min(mu) - spread, max(mu) + spread)


def mdm_logistic_value(x: Sequence[float], scales: Sequence[float]) -> float:
    """V(x) = -sum_i s_i (-x_i log x_i - (1 - x_i) log(1 - x_i))."""
    def h(v):
        return -(v * math.log(v) if v > 0 else 0.0) - \
            ((1 - v) * math.log(1 - v) if v < 1 else 0.0)
    return -math.fsum(s * h(v) for v, s in zip(x, scales))


def mmm_solution(mu: Sequence[float], sigma: Sequence[float]) -> list[float]:
    """MMM, V = -sum sigma_i sqrt(x_i (1 - x_i)).

    Stationarity mu_i + sigma_i (1 - 2x) / (2 sqrt(x (1 - x))) = lam inverts in
    closed form: with t = (lam - mu_i) / sigma_i, x_i = (1 - t / sqrt(1 + t^2)) / 2.
    """
    def shares(lam):
        return [0.5 * (1.0 - t / math.sqrt(1.0 + t * t))
                for t in ((lam - m) / s for m, s in zip(mu, sigma))]

    spread = 1e6 * max(sigma)
    return bisect_multiplier(shares, min(mu) - spread, max(mu) + spread)


def mmm_value(x: Sequence[float], sigma: Sequence[float]) -> float:
    return -math.fsum(s * math.sqrt(max(v * (1.0 - v), 0.0)) for v, s in zip(x, sigma))


def log_barrier_value(x: Sequence[float]) -> float:
    return -math.fsum(math.log(v) for v in x)


def ram_welfare_value(mu: Sequence[float], x: Sequence[float], v: float) -> float:
    return math.fsum(m * xi for m, xi in zip(mu, x)) - v


# --- quadratic RAM: KKT conditions from A directly -------------------------

def _solve_linear(rows: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    k = len(rhs)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(m[r][c]))
        if abs(m[p][c]) < 1e-14:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(k):
            if r != c:
                f = m[r][c] / m[c][c]
                for cc in range(c, k + 1):
                    m[r][cc] -= f * m[c][cc]
    return [m[r][k] / m[r][r] for r in range(k)]


def quadratic_solution(A: Sequence[Sequence[float]], mu: Sequence[float]) -> list[float]:
    """argmax mu.x - x'Ax on the simplex, by checking KKT on every support.

    On support S: 2 (A x)_i + lam = mu_i (i in S), sum x = 1, x_S >= 0, and
    mu_j - 2 (A x)_j <= lam off S. Strict convexity makes the KKT point unique.
    """
    n = len(mu)
    for size in range(n, 0, -1):
        for support in itertools.combinations(range(n), size):
            k = len(support)
            rows = [[2.0 * A[i][j] for j in support] + [1.0] for i in support]
            rows.append([1.0] * k + [0.0])
            rhs = [mu[i] for i in support] + [1.0]
            sol = _solve_linear(rows, rhs)
            if sol is None or min(sol[:k]) < -1e-12:
                continue
            x = [0.0] * n
            for i, v in zip(support, sol[:k]):
                x[i] = max(v, 0.0)
            lam = sol[k]
            if all(mu[j] - 2.0 * math.fsum(A[j][c] * x[c] for c in range(n)) <= lam + 1e-10
                   for j in range(n) if j not in support):
                return x
    raise ArithmeticError("no support satisfies the KKT conditions")


def quadratic_value(A: Sequence[Sequence[float]], x: Sequence[float]) -> float:
    n = len(x)
    return math.fsum(x[i] * A[i][j] * x[j] for i in range(n) for j in range(n))


def quadratic_criterion_passes(A: Sequence[Sequence[float]]) -> bool:
    """A_jk - A_ik - A_ij + A_ii >= 0 for every center i and pair j < k, both != i."""
    n = len(A)
    for i in range(n):
        others = [m for m in range(n) if m != i]
        for j, k in itertools.combinations(others, 2):
            if A[j][k] - A[i][k] - A[i][j] + A[i][i] < 0.0:
                return False
    return True


def logit(u: float) -> float:
    return math.log(u / (1.0 - u))
