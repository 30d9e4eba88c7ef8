"""The reference computations agree with known closed forms.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import reference as ref  # noqa: E402

MUS = [[0.3, -1.2, 0.9], [2.0, 2.0, -2.0], [-0.4, 0.1]]


@pytest.mark.parametrize("mu", MUS)
def test_softmax_and_logsumexp_match_numpy(mu):
    a = np.asarray(mu)
    assert ref.logsumexp(mu) == pytest.approx(np.log(np.sum(np.exp(a))), abs=1e-14)
    np.testing.assert_allclose(ref.softmax(mu), np.exp(a) / np.exp(a).sum(), atol=1e-15)


@pytest.mark.parametrize("mu", MUS)
def test_multiplier_bisection_recovers_softmax_for_entropy(mu):
    # entropy RAM: stationarity 1 + log x_i = mu_i - lam, so x_i = exp(mu_i - lam - 1)
    x = ref.bisect_multiplier(lambda lam: [math.exp(m - lam - 1.0) for m in mu],
                              min(mu) - 50.0, max(mu) + 50.0)
    np.testing.assert_allclose(x, ref.softmax(mu), atol=1e-12)


def _common_multiplier(values):
    assert max(values) - min(values) < 1e-8


@pytest.mark.parametrize("mu", MUS)
def test_log_barrier_solution_is_stationary(mu):
    x = ref.log_barrier_solution(mu)
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)
    _common_multiplier([m + 1.0 / xi for m, xi in zip(mu, x)])


def test_log_barrier_at_equal_utilities_is_uniform():
    np.testing.assert_allclose(ref.log_barrier_solution([0.7, 0.7, 0.7]), [1 / 3] * 3,
                               atol=1e-12)


@pytest.mark.parametrize("mu", MUS[:2])
def test_mdm_logistic_solution_is_stationary(mu):
    scales = [1.0, 0.7, 1.5]
    x = ref.mdm_logistic_solution(mu, scales)
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)
    # gradient of V is -s log((1 - x) / x); mu_i - dV_i is the multiplier
    _common_multiplier([m + s * math.log((1 - xi) / xi) for m, s, xi in zip(mu, scales, x)])


@pytest.mark.parametrize("mu", MUS[:2])
def test_mmm_solution_is_stationary(mu):
    sigma = [2.0, 2.5, 2.0]
    x = ref.mmm_solution(mu, sigma)
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)
    _common_multiplier([m + s * (1 - 2 * xi) / (2 * math.sqrt(xi * (1 - xi)))
                        for m, s, xi in zip(mu, sigma, x)])


def test_quadratic_solution_interior_matches_linear_kkt():
    A = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
    mu = np.array([0.2, 0.1, -0.1])
    # interior KKT: 2 A x + lam 1 = mu, 1'x = 1
    system = np.block([[2 * A, np.ones((3, 1))], [np.ones((1, 3)), np.zeros((1, 1))]])
    x = np.linalg.solve(system, np.append(mu, 1.0))[:3]
    assert np.all(x > 0)
    np.testing.assert_allclose(ref.quadratic_solution(A.tolist(), mu.tolist()), x,
                               atol=1e-12)


def test_quadratic_solution_reaches_a_vertex():
    A = [[1.0, 0.0], [0.0, 1.0]]
    assert ref.quadratic_solution(A, [10.0, 0.0]) == [1.0, 0.0]


def test_quadratic_criterion():
    assert not ref.quadratic_criterion_passes([[3, 2, 0], [2, 3, 2], [0, 2, 3]])
    assert ref.quadratic_criterion_passes(np.eye(3).tolist())


@pytest.mark.parametrize("mu", MUS)
def test_gumbel_quadrature_matches_closed_forms(mu):
    np.testing.assert_allclose(ref.iid_choice_probs("gumbel", 1.0, mu), ref.softmax(mu),
                               atol=1e-9)
    assert ref.iid_expected_max("gumbel", 1.0, mu) == pytest.approx(
        ref.gumbel_expected_max(mu, 1.0), abs=1e-8)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_normal_quadrature_matches_two_alternative_formula(sigma):
    p = ref.iid_choice_probs("normal", sigma, [0.4, -0.3])
    assert p[0] == pytest.approx(ref.normal_binary_prob(0.4, -0.3, sigma), abs=1e-9)
    # E max(mu1 + e1, mu2 + e2) for iid normals, with d = mu1 - mu2 and s = sigma sqrt 2:
    # mu2 + d Phi(d / s) + s phi(d / s)
    d, s = 0.7, sigma * math.sqrt(2.0)
    density = math.exp(-0.5 * (d / s) ** 2) / math.sqrt(2 * math.pi)
    exact = -0.3 + d * ref.normal_cdf(d / s) + s * density
    assert ref.iid_expected_max("normal", sigma, [0.4, -0.3]) == pytest.approx(exact, abs=1e-8)


def test_logistic_quadrature_symmetry_and_single_alternative():
    p = ref.iid_choice_probs("logistic", 1.0, [0.0, 0.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-10)
    p = ref.iid_choice_probs("logistic", 1.0, [0.5, -0.5, 0.2])
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-9)
    assert ref.iid_expected_max("logistic", 1.0, [0.3]) == pytest.approx(0.3, abs=1e-8)


def test_log_sum_cross_partial_matches_finite_difference():
    W = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
    mu = [0.2, -0.1, 3.5]
    h = 1e-6
    up = ref.log_sum_probs(W, [mu[0] + h, mu[1], mu[2]])[1]
    down = ref.log_sum_probs(W, [mu[0] - h, mu[1], mu[2]])[1]
    assert ref.log_sum_cross_partial(W, mu, 0, 1) == pytest.approx((up - down) / (2 * h),
                                                                   abs=1e-8)
    assert ref.log_sum_cross_partial(W, mu, 0, 1) > 0


def test_logit_inverts_logistic_cdf():
    for u in (0.05, 0.3, 0.5, 0.9):
        assert 1.0 / (1.0 + math.exp(-ref.logit(u))) == pytest.approx(u, abs=1e-15)


@pytest.mark.parametrize("t", [-10.0, -0.3, 0.0, 2.5])
def test_brand_slice_matches_log_sum_model(t):
    W = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
    q2, slope = ref.brand_slice(t, 0.0, 3.0)
    assert q2 == pytest.approx(ref.log_sum_probs(W, [t, 0.0, 3.0])[1], abs=1e-15)
    assert slope == pytest.approx(ref.log_sum_cross_partial(W, [t, 0.0, 3.0], 0, 1),
                                  abs=1e-15)
