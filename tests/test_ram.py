"""Regularizer library and simplex solver tests."""

import itertools
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice import core, modelspec, ram
from welfarechoice.cli import main
from welfarechoice.ram import (SOLVER_TOL, Marginal,
                               cmm_regularizer, custom_marginal,
                               entropy_regularizer,
                               exponential_marginal, log_barrier_regularizer,
                               logistic_marginal, mdm_regularizer,
                               mmm_regularizer, normal_marginal,
                               quadratic_regularizer, ram_welfare, solve_ram,
                               uniform_marginal, verify_kkt)
from welfarechoice.welfare import (check_axioms, check_superlinear, mnl_welfare,
                                   pointwise, softmax)

COUPLING = np.array([[3.0, 2.0, 0.0],
                     [2.0, 3.0, 2.0],
                     [0.0, 2.0, 3.0]])


def grid_maximizer_2d(objective, resolution=10001):
    """Oracle: brute-force maximizer of a two-alternative simplex objective."""
    t = np.linspace(1e-6, 1.0 - 1e-6, resolution)
    vals = np.array([objective(np.array([a, 1.0 - a])) for a in t])
    k = int(np.argmax(vals))
    return np.array([t[k], 1.0 - t[k]]), vals[k]


@pytest.fixture
def solves(monkeypatch):
    """The row counts of the solves `ram._argmax` makes while the test runs."""
    solved = []
    argmax = ram._argmax

    def counting(reg, mu):
        solved.append(mu.shape[0])
        return argmax(reg, mu)

    monkeypatch.setattr(ram, "_argmax", counting)
    return solved


class TestEntropyRegularizer:
    def test_values(self):
        reg = entropy_regularizer(1.0, 2)
        assert abs(reg.value(np.array([0.5, 0.5])) + math.log(2)) <= 1e-12
        assert reg.value(np.array([1.0, 0.0])) == 0.0
        reg2 = entropy_regularizer(2.0, 3)
        assert abs(reg2.value(np.ones(3) / 3) + 2 * math.log(3)) <= 1e-12

    def test_midpoint_convexity(self):
        reg = entropy_regularizer(1.3, 4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            mid = reg.value(0.5 * (x + y))
            assert mid <= 0.5 * (reg.value(x) + reg.value(y)) + 1e-9


class TestQuadraticRegularizer:
    def test_values(self):
        reg = quadratic_regularizer(np.eye(2))
        assert abs(reg.value(np.array([0.75, 0.25])) - 0.625) <= 1e-12
        reg_c = quadratic_regularizer(COUPLING)
        assert abs(reg_c.value(np.array([1.0, 0.0, 0.0])) - 3.0) <= 1e-12
        reg3 = quadratic_regularizer(np.eye(3))
        assert abs(reg3.value(np.ones(3) / 3) - 1.0 / 3.0) <= 1e-12

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            quadratic_regularizer(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            quadratic_regularizer(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestLogBarrierRegularizer:
    def test_values(self):
        reg = log_barrier_regularizer(2)
        assert abs(reg.value(np.array([0.5, 0.5])) - 2 * math.log(2)) <= 1e-12
        assert reg.value(np.array([1.0, 0.0])) == np.inf
        reg4 = log_barrier_regularizer(4)
        assert abs(reg4.value(np.ones(4) / 4) - 4 * math.log(4)) <= 1e-12
        assert ram_welfare(reg).superlinear_bounds is None


class TestMDMRegularizer:
    def test_uniform_closed_form(self):
        reg = mdm_regularizer([uniform_marginal()] * 3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.dirichlet(np.ones(3))
            expected = -float(np.sum(x - 0.5 * x * x))
            assert abs(reg.value(x) - expected) <= 1e-12

    def test_uniform_vertex(self):
        reg = mdm_regularizer([uniform_marginal()] * 2)
        assert abs(reg.value(np.array([1.0, 0.0])) + 0.5) <= 1e-12

    def test_quadrature_path_matches_closed_forms(self):
        # custom marginals carry only the quantile; their tail integrals are
        # computed by a fixed tanh-sinh rule and must agree with the analytics
        pairs = [
            (logistic_marginal(1.0),
             custom_marginal(lambda t: np.log(t / (1.0 - t)))),
            (normal_marginal(0.8),
             custom_marginal(lambda t: 0.8 * core.normal_quantile(t))),
            (exponential_marginal(2.0),
             custom_marginal(lambda t: -np.log1p(-t) / 2.0)),
        ]
        rng = np.random.default_rng(2)
        for closed, quad in pairs:
            reg_c = mdm_regularizer([closed] * 2)
            reg_q = mdm_regularizer([quad] * 2)
            for _ in range(10):
                x = rng.dirichlet(np.ones(2)) * 0.98 + 0.01
                assert abs(reg_c.value(x) - reg_q.value(x)) <= 1e-7

    def test_gradient_is_negative_quantile(self):
        reg = mdm_regularizer([logistic_marginal(1.0)] * 3)
        x = np.array([0.2, 0.3, 0.5])
        g = reg.gradient(x)
        expected = -np.array([math.log((1 - xi) / xi) for xi in x])
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_exponential_marginals_reproduce_mnl(self):
        # KKT for exponential(1) marginals reduces to the entropy system,
        # so the probabilities coincide with the logit closed form and the
        # welfare is shifted by the unit mean
        reg = mdm_regularizer([exponential_marginal(1.0)] * 3)
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = rng.uniform(-3, 3, 3)
            result = solve_ram(reg, mu)
            assert result.converged
            np.testing.assert_allclose(result.x_star, m.gradient(mu), atol=1e-5)
            assert abs(result.w_value - (m.value(mu) + 1.0)) <= 1e-6

    @pytest.mark.parametrize("marginal", [normal_marginal(1e-308), logistic_marginal(1e-308),
                                          exponential_marginal(1e308)], ids=lambda m: m.family)
    def test_a_tiny_scale_solves_without_overflow(self, marginal):
        # the survival's t / scale (rate * t for the exponential) overflowed
        # with a RuntimeWarning
        reg = mdm_regularizer([uniform_marginal(), marginal])
        result = solve_ram(reg, np.array([-10.0, 0.0]))
        assert result.converged
        np.testing.assert_array_equal(result.x_star, [0.0, 1.0])
        s = marginal.survival(np.array([-1e300, 1e300]))
        assert s[0] == 1.0 and 0.0 <= s[1] < 1e-300

    def test_logistic_marginals_match_grid_oracle_not_mnl(self):
        reg = mdm_regularizer([logistic_marginal(1.0)] * 2)
        mu = np.array([1.0, 0.0])
        result = solve_ram(reg, mu)
        oracle_x, _ = grid_maximizer_2d(lambda x: mu @ x - reg.value(x))
        assert abs(result.x_star[0] - oracle_x[0]) <= 2e-4
        # analytic fixed point: logit(x1) = (mu1 - mu2)/2
        assert abs(result.x_star[0] - 1.0 / (1.0 + math.exp(-0.5))) <= 1e-6
        mnl_prob = float(softmax(mu)[0])
        assert abs(result.x_star[0] - mnl_prob) > 0.05


class TestCustomMarginals:
    """A marginal given by its quantile only takes the one-multiplier path."""

    TWINS = {  # (custom, built-in) pairs of three marginals per family
        "logistic": [(custom_marginal(lambda t, s=s: s * np.log(t / (1.0 - t))),
                      logistic_marginal(s)) for s in (1.0, 0.7, 1.5)],
        "normal": [(custom_marginal(lambda t, sd=sd: sd * core.normal_quantile(t)),
                    normal_marginal(sd)) for sd in (0.8, 1.0, 1.3)],
        "exponential": [(custom_marginal(lambda t, r=r: -np.log1p(-t) / r),
                         exponential_marginal(r)) for r in (1.0, 2.0, 0.5)],
        "uniform": [(custom_marginal(lambda t: t), uniform_marginal())] * 3,
    }

    @pytest.mark.parametrize("box, atol", [(3.0, 1e-11), (30.0, 1e-8)])
    @pytest.mark.parametrize("family", sorted(TWINS))
    def test_custom_twin_matches_the_built_in(self, family, box, atol):
        customs, built_ins = zip(*self.TWINS[family])
        points = np.random.default_rng(21).uniform(-box, box, (40, 3))
        result = solve_ram(mdm_regularizer(customs), points)
        assert np.all(result.converged)
        np.testing.assert_allclose(result.x_star,
                                   solve_ram(mdm_regularizer(built_ins), points).x_star,
                                   rtol=0.0, atol=atol)

    def test_custom_next_to_built_in_points_converge(self):
        # the Newton ascent left all four unconverged, at KKT residuals 0.35-1.4
        reg = mdm_regularizer([custom_marginal(lambda t: 0.8 * core.normal_quantile(t)),
                               custom_marginal(lambda t: -np.log1p(-t) / 2.0),
                               uniform_marginal()])
        for mu in np.random.default_rng(0).uniform(-5.0, 5.0, (4, 3)):
            start = time.perf_counter()
            result = solve_ram(reg, mu)
            assert time.perf_counter() - start < 1.0
            assert result.converged and result.kkt_residual <= SOLVER_TOL

    @pytest.mark.parametrize("quantile", [lambda t: math.log(t / (1.0 - t)),
                                          lambda t: float(np.mean(t))],
                             ids=["raises", "returns_a_scalar"])
    def test_scalar_only_quantile_is_refused_when_built(self, quantile):
        with pytest.raises(ValueError, match="does not broadcast"):
            mdm_regularizer([custom_marginal(quantile), logistic_marginal(1.0)])

    def test_a_decreasing_quantile_is_refused(self):
        with pytest.raises(ValueError, match="quantile of custom marginal is decreasing"):
            mdm_regularizer([custom_marginal(lambda t: -t), uniform_marginal()])

    @pytest.mark.parametrize("tail", [lambda x: x - 0.5 * x * x if x > 0.0 else 0.0,
                                      lambda x: float(np.mean(x))],
                             ids=["raises", "returns_a_scalar"])
    def test_scalar_only_tail_integral_is_refused_when_built(self, tail):
        uniform = uniform_marginal()
        scalar_tail = Marginal(family="scalar_tail", upper_quantile=uniform.upper_quantile,
                               survival=uniform.survival, tail_integral=tail)
        with pytest.raises(ValueError,
                           match="tail integral of scalar_tail marginal does not broadcast"):
            mdm_regularizer([scalar_tail, logistic_marginal(1.0)])


class TestMMMRegularizer:
    def test_value(self):
        reg = mmm_regularizer([2.0, 0.5])
        assert abs(reg.value(np.array([0.5, 0.5])) + 1.25) <= 1e-12

    @pytest.mark.parametrize("sigma", [[2.0, 0.0], [0.0, 0.0], [1.0, -1.0], [1.0, np.nan],
                                       [1e308, 1e308], [1.0, 2e154]],
                             ids=["one_zero", "all_zero", "negative", "nan", "square_past_float",
                                  "one_square_past_float"])
    def test_a_sigma_not_positive_or_whose_square_overflows_is_refused(self, sigma):
        # a zero sigma made V not strictly convex: it was built, and every
        # solve refused it; a squared sigma of inf made the bracket's g nan
        with pytest.raises(ValueError, match="each positive with a finite square"):
            mmm_regularizer(sigma)

    def test_symmetric_solve(self):
        reg = mmm_regularizer([1.0, 1.0])
        result = solve_ram(reg, np.array([0.0, 0.0]))
        np.testing.assert_allclose(result.x_star, [0.5, 0.5], atol=1e-9)
        assert abs(result.w_value - 1.0) <= 1e-9
        oracle_x, oracle_val = grid_maximizer_2d(
            lambda x: -reg.value(x))
        assert abs(oracle_val - 1.0) <= 1e-7

    def test_sigma_squared_near_the_float_range_solves(self):
        # sigma^2 = 1e300: the bracket at (1e300, 0) was past 1e296, and its
        # step count overflowed
        result = solve_ram(mmm_regularizer([1e150, 1e150]), np.array([[0.0, 0.0], [1e300, 0.0]]))
        assert np.all(result.converged)
        np.testing.assert_array_equal(result.x_star, [[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_array_equal(result.w_value, [1e150, 1e300])

    def test_choice_is_0_where_its_denominator_overflows(self):
        # r (r + t) overflowed with a RuntimeWarning; its limit is x = 0
        x = mmm_regularizer([1.0, 2.0]).choice(np.array([1e300, -1e300]))
        np.testing.assert_array_equal(x, [0.0, 1.0])

    def test_grid_agreement_50_random_instances(self):
        # brute-force oracle: the objective on a 1e-4-spaced simplex grid,
        # written out directly rather than through the regularizer
        rng = np.random.default_rng(4)
        t = np.linspace(1e-6, 1.0 - 1e-6, 10001)
        root = np.sqrt(t * (1.0 - t))
        for _ in range(50):
            sigma = rng.uniform(0.5, 2.0, 2)
            mu = rng.uniform(-2, 2, 2)
            reg = mmm_regularizer(sigma)
            result = solve_ram(reg, mu)
            assert result.converged
            objective = mu[0] * t + mu[1] * (1.0 - t) + (sigma[0] + sigma[1]) * root
            oracle = t[int(np.argmax(objective))]
            assert abs(result.x_star[0] - oracle) <= 2e-4


class TestCMMRegularizer:
    def test_identity_covariance_half_half(self):
        # S((1/2,1/2)) has eigenvalues {1/2, 0}
        reg = cmm_regularizer(np.eye(2))
        assert abs(reg.value(np.array([0.5, 0.5])) + math.sqrt(0.5)) <= 1e-12

    def test_vertex_is_zero(self):
        reg = cmm_regularizer(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert abs(reg.value(np.array([1.0, 0.0]))) <= 1e-7

    def test_diagonal_covariance_reduces_to_rank_one_root(self):
        # with Sigma = diag(s^2) and n = 2 the inner matrix is rank one, so
        # the trace of its root is sqrt(x1 x2 (s1^2 + s2^2)); brute-force
        # eigendecomposition is the oracle
        sg = np.array([1.3, 0.6])
        reg = cmm_regularizer(np.diag(sg ** 2))
        mmm_equiv = mmm_regularizer(np.full(2, math.sqrt(float(sg @ sg)) / 2))
        rng = np.random.default_rng(5)
        for _ in range(25):
            x1 = rng.uniform(0.05, 0.95)
            x = np.array([x1, 1 - x1])
            s_mat = np.diag(x) - np.outer(x, x)
            m_mat = np.diag(sg) @ s_mat @ np.diag(sg)
            brute = -float(np.sum(np.sqrt(np.maximum(
                np.linalg.eigvalsh(m_mat), 0.0))))
            closed = -math.sqrt(x[0] * x[1] * float(sg @ sg))
            assert abs(brute - closed) <= 1e-8
            assert abs(reg.value(x) - closed) <= 1e-8
            assert abs(mmm_equiv.value(x) - closed) <= 1e-8

    def test_gradient_along_tangent_directions(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            b_mat = rng.normal(size=(n, n))
            reg = cmm_regularizer(b_mat @ b_mat.T + 0.5 * np.eye(n))
            x = rng.dirichlet(np.ones(n) * 3) * 0.9 + 0.1 / n
            g = reg.gradient(x)
            h = 1e-5
            for i in range(n):
                for j in range(i + 1, n):
                    d = np.zeros(n)
                    d[i], d[j] = 1.0, -1.0
                    fd = (reg.value(x + h * d) - reg.value(x - h * d)) / (2 * h)
                    assert abs(fd - (g[i] - g[j])) <= 1e-6 * max(1.0, abs(fd))

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(ValueError):
            cmm_regularizer(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestSuperlinearBounds:
    @pytest.mark.parametrize("reg, expected", [
        (entropy_regularizer(1.5, 3), [0.0, 0.0, 0.0]),
        (quadratic_regularizer(COUPLING), [-3.0, -3.0, -3.0]),
        (mdm_regularizer([uniform_marginal(), exponential_marginal(2.0),
                          logistic_marginal(1.0)]), [0.5, 0.5, 0.0]),
        (mmm_regularizer([2.0, 2.5, 2.0]), [0.0, 0.0, 0.0]),
        (cmm_regularizer([[9, 0.9, 0.9], [0.9, 9, 0.9], [0.9, 0.9, 9]]), [0.0, 0.0, 0.0]),
    ], ids=["entropy", "quadratic", "mdm", "mmm", "cmm"])
    def test_bounds_are_minus_the_vertex_values(self, reg, expected):
        model = ram_welfare(reg)
        np.testing.assert_array_equal(model.superlinear_bounds,
                                      [-reg.value(e) for e in np.eye(3)])
        np.testing.assert_allclose(model.superlinear_bounds, expected, atol=1e-15)
        assert check_superlinear(model, model.superlinear_bounds, samples=50).passed

    def test_custom_marginal_bound_is_its_integrated_mean(self):
        reg = mdm_regularizer([custom_marginal(lambda t: t * t),
                               uniform_marginal()])
        np.testing.assert_allclose(ram_welfare(reg).superlinear_bounds,
                                   [1.0 / 3.0, 0.5], atol=1e-10)

    def test_log_barrier_has_none(self):
        assert ram_welfare(log_barrier_regularizer(3)).superlinear_bounds is None

    @pytest.mark.parametrize("reg, scales", [
        (entropy_regularizer(1.0, 3), [1.0, 1e3, 1e6, 1e12]),
        (quadratic_regularizer(COUPLING), [1.0, 1e3, 1e6, 1e12]),
        (mdm_regularizer([logistic_marginal(1.0), exponential_marginal(1.0),
                          normal_marginal(0.5)]), [1.0, 30.0, 1e3, 1e6, 1e12]),
        (mdm_regularizer([uniform_marginal(), exponential_marginal(3.0),
                          normal_marginal(2.0)]), [1.0, 30.0, 1e3, 1e6, 1e12]),
        (mmm_regularizer([1.0, 1.0, 1.0]), [1.0, 1e3, 1e6, 1e12]),
        (cmm_regularizer([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.5]]), [1.0]),
    ], ids=["entropy", "quadratic", "mdm", "mdm_uniform", "mmm", "cmm"])
    def test_solves_meet_the_lower_bound(self, reg, scales):
        # the value refuses no converged solve: w >= max_i(mu_i + b_i) within
        # its allowance, also near the vertices, where the unit-sum defect of
        # x moves w by (1 - sum x) lam
        model = ram_welfare(reg)
        rng = np.random.default_rng(38)
        for s in scales:
            mu = rng.uniform(-1.0, 1.0, (300, 3)) * s
            mu[150:] += rng.uniform(-1.0, 1.0, (150, 1)) * 1e3 * s
            assert np.all(np.isfinite(model.value(mu)))

    @pytest.mark.parametrize("mu", [[1e10, 0.0, 0.0], [1e150, 0.0, 0.0]])
    def test_a_cmm_w_below_its_lower_bound_is_refused(self, mu):
        # the solve reports convergence with x_2, x_3 below ACTIVE_TOL, and
        # mu.x - V(x) falls 3.8e-10 |mu_1| short of mu_1 + b_1 = mu_1
        model = ram_welfare(cmm_regularizer([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                                             [0.0, 0.0, 1.5]]))
        with pytest.raises(core.NumericError, match=re.escape(
                f"below its bound max_i(mu_i + b_i) = {mu[0]!r} at mu={mu}")):
            model.value(np.array(mu))


class TestSolveRAM:
    def test_entropy_symmetric(self):
        result = solve_ram(entropy_regularizer(1.0, 3), np.zeros(3))
        np.testing.assert_allclose(result.x_star, np.ones(3) / 3, atol=1e-10)
        assert abs(result.w_value - math.log(3)) <= 1e-12

    def test_quadratic_identity_analytic(self):
        # stationarity on the segment x2 = 1 - x1 gives 3 - 4 x1 = 0
        result = solve_ram(quadratic_regularizer(np.eye(2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(result.x_star, [0.75, 0.25], atol=1e-10)
        oracle_x, _ = grid_maximizer_2d(
            lambda x: x[0] - float(x @ x))
        assert abs(oracle_x[0] - 0.75) <= 1e-4

    def test_entropy_matches_mnl_closed_form(self):
        result = solve_ram(entropy_regularizer(1.0, 3), np.array([1.0, 0.0, 0.0]))
        expected = np.array([math.e, 1.0, 1.0]) / (math.e + 2.0)
        np.testing.assert_allclose(result.x_star, expected, atol=1e-6)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_entropy_reproduces_mnl(self, eta, n):
        reg = entropy_regularizer(eta, n)
        m = mnl_welfare(eta, n)
        rng = np.random.default_rng(100 * n + int(10 * eta))
        for _ in range(20):
            mu = rng.uniform(-5, 5, n)
            result = solve_ram(reg, mu)
            assert result.converged
            assert np.max(np.abs(result.x_star - m.gradient(mu))) <= 1e-6
            assert abs(result.w_value - m.value(mu)) <= 1e-6

    def test_exact_and_iterative_quadratic_paths_agree(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            b_mat = rng.normal(size=(3, 3))
            reg = quadratic_regularizer(b_mat @ b_mat.T + 0.5 * np.eye(3))
            mu = rng.uniform(-3, 3, 3)
            exact = solve_ram(reg, mu)
            x, _, converged = ram._iterative_solve(reg, mu[None])
            assert exact.converged and converged[0]
            np.testing.assert_allclose(exact.x_star, x[0], atol=1e-7)

    def test_envelope_gradient_identity(self):
        # the solved welfare's utility-gradient is the maximizer itself
        regs = [entropy_regularizer(1.0, 3),
                quadratic_regularizer(0.5 * COUPLING),
                mdm_regularizer([logistic_marginal(1.0)] * 3),
                mmm_regularizer([2.0, 2.5, 2.0])]
        rng = np.random.default_rng(9)
        for reg in regs:
            model = ram_welfare(reg)
            for _ in range(5):
                mu = rng.uniform(-1.5, 1.5, 3)
                fd = core.finite_diff_gradient(model.value, mu)
                x_star = np.asarray(model.gradient(mu))
                assert np.max(np.abs(fd - x_star)) <= 1e-5

    def test_solved_welfare_passes_axioms(self):
        model = ram_welfare(entropy_regularizer(1.0, 3))
        report = check_axioms(model, samples=120, box=5.0, seed=0)
        assert report.all_passed

    def test_failed_line_search_reports_iterations_made(self):
        # V is infinite everywhere, so no trial step is ever accepted and
        # the Newton ascent stops on its first iteration
        reg = ram.Regularizer(n=3, value=pointwise(lambda x: np.inf),
                              gradient=pointwise(lambda x: np.zeros(3)),
                              boundary_barrier=True, name="nowhere_finite")
        result = solve_ram(reg, np.array([1.0, 0.0, -1.0]))
        assert not result.converged
        assert result.iterations == 0


class TestSolverPaths:
    """The path follows the regularizer's fields; each path solves a batch."""

    REGULARIZERS = {
        "entropy": lambda: entropy_regularizer(1.0, 3),
        "quadratic": lambda: quadratic_regularizer(COUPLING),
        "logbarrier": lambda: log_barrier_regularizer(3),
        "mdm": lambda: mdm_regularizer([logistic_marginal(s) for s in (1.0, 0.7, 1.5)]),
        "mmm": lambda: mmm_regularizer([2.0, 2.5, 2.0]),
        "cmm": lambda: cmm_regularizer(np.eye(3) + 0.2),
    }

    @pytest.mark.parametrize("family", sorted(REGULARIZERS))
    def test_batch_matches_per_point_solves_bit_for_bit(self, family):
        reg = self.REGULARIZERS[family]()
        points = np.random.default_rng(12).uniform(-2.0, 2.0, (2, 3, 3))
        batch = solve_ram(reg, points)
        assert batch.x_star.shape == (2, 3, 3)
        for field in ("w_value", "kkt_residual", "iterations", "converged"):
            assert np.shape(getattr(batch, field)) == (2, 3)
        for idx in np.ndindex(2, 3):
            single = solve_ram(reg, points[idx])
            np.testing.assert_array_equal(batch.x_star[idx], single.x_star)
            assert batch.w_value[idx] == single.w_value
            assert batch.kkt_residual[idx] == single.kkt_residual
            assert batch.converged[idx] == single.converged
            if reg.choice is None:
                # a separable solve reports the bisection steps of its whole batch
                assert batch.iterations[idx] == single.iterations
        model = ram_welfare(reg)
        np.testing.assert_array_equal(model.gradient(points), batch.x_star)
        np.testing.assert_array_equal(model.value(points), batch.w_value)

    @pytest.mark.parametrize("family", sorted(REGULARIZERS))
    def test_an_empty_stack_solves_to_empty_results(self, family):
        # the utilities are checked by core.as_utilities, as the Monte Carlo panel's are
        reg = self.REGULARIZERS[family]()
        assert solve_ram(reg, np.empty((0, 3))).x_star.shape == (0, 3)
        model = ram_welfare(reg)
        assert model.value(np.empty((0, 3))).shape == (0,)
        assert model.gradient(np.empty((0, 3))).shape == (0, 3)

    def test_structure_picks_the_path(self):
        for family in ("entropy", "logbarrier", "mdm", "mmm"):
            assert self.REGULARIZERS[family]().choice is not None
        assert self.REGULARIZERS["quadratic"]().quadratic_matrix is not None
        assert cmm_regularizer(np.eye(3)).choice is None
        # a marginal given by its quantile only is separable too
        custom = custom_marginal(lambda t: np.log(t / (1.0 - t)))
        reg = mdm_regularizer([custom, logistic_marginal(1.0)])
        assert reg.choice is not None
        result = solve_ram(reg, np.array([0.5, -0.2]))
        assert result.converged and result.kkt_residual <= SOLVER_TOL

    def test_walk_counts_its_steps_and_repeats_bit_for_bit(self):
        reg = quadratic_regularizer(np.eye(3))
        # an interior optimum is the first step's solve, on the full support
        assert solve_ram(reg, np.zeros(3)).iterations == 1
        # the full support's solution is negative in x_2, which the walk
        # drops; the second step's solve is the optimum
        first = solve_ram(reg, np.array([2.0, -2.0, 0.0]))
        assert first.x_star[1] == 0.0
        assert first.iterations == 2
        again = solve_ram(reg, np.array([2.0, -2.0, 0.0]))
        np.testing.assert_array_equal(first.x_star, again.x_star)

    def test_value_and_gradient_share_one_solve(self, monkeypatch):
        solved = []
        argmax = ram._argmax

        def counting(reg, mu):
            solved.append(mu.shape[0])
            return argmax(reg, mu)

        monkeypatch.setattr(ram, "_argmax", counting)
        reg = mmm_regularizer([2.0, 2.5, 2.0])
        model = ram_welfare(reg)
        points = np.array([[0.5, 0.0, -0.5], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        w = model.value(points)
        q = model.gradient(points)
        assert solved == [3]
        q[0, 0] = 7.0  # callers get copies, not the kept solve
        assert model.gradient(points)[0, 0] != 7.0
        assert solved == [3]
        model.value(points[0])
        assert solved == [3, 1]
        expected = solve_ram(reg, points)
        np.testing.assert_array_equal(w, expected.w_value)
        np.testing.assert_array_equal(model.gradient(points), expected.x_star)

    @pytest.mark.parametrize("family", sorted(REGULARIZERS))
    def test_the_benchmark_call_pattern_makes_two_solves(self, family, solves):
        # solve_ram, then w and q at the same point, then the FD gradient of w:
        # the point and its 2n-point stencil, where three solves were made
        # when solve_ram and the model each solved the point
        reg = self.REGULARIZERS[family]()
        model = ram_welfare(reg)
        mu = np.array([0.4, -0.3, 0.1])
        result = solve_ram(reg, mu)
        w, q = model.value(mu), model.gradient(mu)
        core.finite_diff_gradient(model.value, mu)
        assert solves == [1, 6]
        assert w == result.w_value
        np.testing.assert_array_equal(q, result.x_star)

    @pytest.mark.parametrize("family", sorted(REGULARIZERS))
    def test_callers_get_copies_of_the_kept_solve(self, family, solves):
        reg = self.REGULARIZERS[family]()
        model = ram_welfare(reg)
        points = np.random.default_rng(14).uniform(-2.0, 2.0, (4, 3))
        batch = solve_ram(reg, points)
        expected = [batch.x_star.copy(), batch.iterations.copy(), batch.converged.copy()]
        batch.x_star[...], batch.iterations[...], batch.converged[...] = 7.0, -1, False
        model.gradient(points)[...] = 7.0
        again = solve_ram(reg, points)
        for got, want in zip((again.x_star, again.iterations, again.converged), expected):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(model.gradient(points), expected[0])
        single = solve_ram(reg, points[0])
        single.x_star[...] = 7.0
        np.testing.assert_array_equal(solve_ram(reg, points[0]).x_star, expected[0][0])
        np.testing.assert_array_equal(model.gradient(points[0]), expected[0][0])
        assert solves == [4, 1]  # every read above but the first of each was kept

    def test_an_equal_copy_of_a_quadratic_solves_bit_for_bit(self, solves):
        # the kept solve compares regularizers by identity: == on the copy
        # would read its equal but distinct matrix as a bool, and raise
        reg = quadratic_regularizer(COUPLING)
        twin = replace(reg, quadratic_matrix=reg.quadratic_matrix.copy())
        points = np.random.default_rng(15).uniform(-2.0, 2.0, (5, 3))
        first = solve_ram(reg, points)
        second = solve_ram(twin, points)
        for field in ("x_star", "w_value", "kkt_residual", "iterations", "converged"):
            np.testing.assert_array_equal(getattr(second, field), getattr(first, field))
        np.testing.assert_array_equal(ram_welfare(twin).gradient(points), first.x_star)
        np.testing.assert_array_equal(ram_welfare(reg).value(points), first.w_value)
        assert solves == [5, 5, 5]

    def test_a_kept_unconverged_solve_makes_the_model_raise(self, monkeypatch, solves):
        # a sign-flipped KKT system: the walk cycles until its cap
        monkeypatch.setattr(ram, "bordered", lambda m: core.bordered(-m))
        reg = quadratic_regularizer(np.eye(3))
        mu = np.array([2.0, -2.0, 0.0])
        assert not solve_ram(reg, mu).converged
        model = ram_welfare(reg)
        for read in (model.value, model.gradient):
            with pytest.raises(core.NumericError, match="did not converge"):
                read(mu)
        assert solves == [1]


class TestKnownFailurePoints:
    """Points where mirror descent failed; the multiplier search solves them."""

    def assert_solved(self, reg, mu, expected=None, atol=0.0):
        mu = np.asarray(mu, dtype=float)
        result = solve_ram(reg, mu)
        assert result.converged
        assert verify_kkt(reg, mu, result.x_star) <= SOLVER_TOL
        if expected is not None:
            np.testing.assert_allclose(result.x_star, expected, atol=atol)
        return result

    def test_mmm_far_corner(self):
        self.assert_solved(mmm_regularizer([2.0, 2.5, 2.0]), [-20.0, -20.0, 20.0],
                           [0.0016, 0.0026, 0.9958], atol=5e-5)

    def test_mmm_two_alternatives_far_from_origin(self):
        self.assert_solved(mmm_regularizer([1.0, 2.0]), [-64.0, 0.0],
                           [5.5e-4, 0.99945], atol=5e-6)

    def test_log_barrier_two_alternatives_far_from_origin(self):
        result = self.assert_solved(log_barrier_regularizer(2), [-192.0, 0.0])
        # stationarity 1/x_2 - 1/x_1 = mu_1 - mu_2 on the segment
        x1, x2 = result.x_star
        assert abs((1.0 / x2 - 1.0 / x1) + 192.0) <= 1e-8

    def test_log_barrier_far_from_origin(self):
        # the multiplier search sees utilities relative to each point's
        # largest; with lam ~ 1e8 it kept too few digits, and 157 of these
        # points missed the unit sum. The KKT residual cannot fall below the
        # rounding of |mu| itself, so it is bounded relative to |mu|.
        reg = log_barrier_regularizer(3)
        points = np.random.default_rng(0).uniform(-1e8, 1e8, (200, 3))
        result = solve_ram(reg, points)
        assert np.all(result.converged)
        assert np.all(result.kkt_residual <= 1e-14 * np.max(np.abs(points), axis=1))

    def test_mdm_mixed_marginals(self):
        reg = mdm_regularizer([logistic_marginal(1.0), exponential_marginal(1.0),
                               normal_marginal(0.5)])
        start = time.perf_counter()
        result = self.assert_solved(reg, [1.7402897, 1.26341422, -1.989046])
        assert time.perf_counter() - start < 1.0
        assert result.x_star[2] <= 1e-12


def cmm_stress_set():
    """Three covariances, each at 200 points in the boxes 1, 5 and 20."""
    rng = np.random.default_rng(2101)
    b = rng.normal(size=(4, 4))
    for cov in (9.0 * np.eye(3) + 0.9, np.eye(3) + 0.2, b @ b.T / 4.0 + 0.1 * np.eye(4)):
        for box in (1.0, 5.0, 20.0):
            yield cmm_regularizer(cov), rng.uniform(-box, box, (200, len(cov)))


class TestStepBudget:
    """The Newton ascent stops within its budget, with x on the simplex."""

    def test_a_far_level_converges_in_a_few_steps(self):
        # on the raw level the KKT residual could not fall below the rounding
        # of |mu|, and the solve ran 100,000 iterations (73 s) unconverged
        reg = cmm_regularizer(9.0 * np.eye(3) + 0.9)
        mu = np.array([0.3, -0.2, 0.1])
        result = solve_ram(reg, mu + 1e7)
        assert result.converged and result.iterations <= 10
        # 1e7 + mu rounds mu by up to 1e-9
        np.testing.assert_allclose(result.x_star, solve_ram(reg, mu).x_star, atol=1e-9)

    @pytest.mark.parametrize("shift", [False, True])
    def test_a_near_singular_covariance_stops_within_the_budget(self, shift):
        # this point ran 339 iterations to KKT 34.7; shifted by hand, a barrier
        # step left x_2 = -7.9e-322
        reg = cmm_regularizer(0.00124 * np.eye(3) + 0.1)
        mu = np.array([507.96, -349.58, -140.94])
        start = time.perf_counter()
        result = solve_ram(reg, mu - np.max(mu) if shift else mu)
        assert time.perf_counter() - start < 1.0
        assert result.iterations <= core.ASCENT_MAX_ITER
        assert np.all(result.x_star >= 0.0)
        assert result.converged == (result.kkt_residual <= SOLVER_TOL)

    def test_stress_set_converges_within_the_budget(self):
        for reg, points in cmm_stress_set():
            result = solve_ram(reg, points)
            assert np.all(result.converged)
            assert np.max(result.iterations) <= core.ASCENT_MAX_ITER
            assert np.all(result.x_star >= 0.0)
            assert np.max(result.kkt_residual) <= SOLVER_TOL

    @pytest.mark.parametrize("family", sorted(TestSolverPaths.REGULARIZERS))
    def test_overflowing_differences_are_refused(self, family):
        reg = TestSolverPaths.REGULARIZERS[family]()
        with pytest.raises(ValueError, match="utility differences overflow"):
            solve_ram(reg, np.array([[0.0, 1.0, 2.0], [1e308, -1e308, 0.0]]))


def enumerated_quadratic_argmax(reg, mu):
    """Every support tried largest first, in `itertools.combinations` order,
    each point keeping the first whose KKT solution is nonnegative (to
    1e-12) with no outside coordinate above the multiplier (by more than
    1e-10): the 2^n - 1 solves the active-set walk replaces, kept as the
    reference for its x."""
    a_mat = reg.quadratic_matrix
    m, n = mu.shape
    x = np.zeros((m, n))
    pending = np.arange(m)
    shifted = np.ones((m, n + 1))
    shifted[:, :n] = mu - mu.max(axis=1, keepdims=True)
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n, 0, -1))
    for support in supports:
        if pending.size == 0:
            break
        s = np.asarray(support)
        rows, outside = np.append(s, n), np.setdiff1d(np.arange(n), s)
        system = core.bordered(2.0 * a_mat[np.ix_(s, s)])
        mu_p = shifted[pending]
        sol = np.linalg.solve(system, mu_p[:, rows, None])[..., 0]
        x_s, lam = sol[:, :s.size], sol[:, s.size]
        ok = ~(x_s.min(axis=1) < -1e-12)
        x_p = np.zeros((pending.size, n))
        x_p[:, s] = np.maximum(x_s, 0.0)
        if outside.size:
            grad = mu_p[:, :n] - 2.0 * np.matmul(a_mat, x_p[..., None])[..., 0]
            ok &= ~((grad[:, outside] - lam[:, None]).max(axis=1) > 1e-10)
        x[pending[ok]] = x_p[ok]
        pending = pending[~ok]
    return x


def random_positive_definite(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T / n + 0.1 * np.eye(n)


def stress_matrix(rng, n, kind):
    """A positive definite A of one of three hard kinds: a spectrum
    log-uniform down to 2e-10 (kind 0), a rank-one coupling v v' over a
    2e-10 floor (1), and an all-ones coupling, nearly constant on the
    simplex, over a floor from 2e-10 to 1e-2 (2)."""
    if kind == 1:
        v = rng.normal(size=n)
        return 2e-10 * np.eye(n) + np.outer(v, v)
    if kind == 2:
        floor = 10.0 ** rng.uniform(np.log10(2e-10), -2.0)
        return floor * np.eye(n) + rng.uniform(0.1, 10.0) * np.ones((n, n))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    eig = 10.0 ** rng.uniform(np.log10(2e-10), 1.0, n)
    eig[0] = 2e-10
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


class TestActiveSetWalk:
    """The walk against the support enumeration it replaced."""

    @pytest.mark.parametrize("scale", [1.0, 5.0, 1e8, 1e12])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_random_matrices_match_the_enumeration_bit_for_bit(self, n, scale):
        rng = np.random.default_rng([n, int(np.log10(scale))])
        for _ in range(4):
            reg = quadratic_regularizer(random_positive_definite(rng, n))
            points = rng.uniform(-scale, scale, (250, n))
            result = solve_ram(reg, points)
            assert np.all(result.converged)
            np.testing.assert_array_equal(result.x_star,
                                          enumerated_quadratic_argmax(reg, points))
            assert np.max(result.iterations) <= 2 * n

    @pytest.mark.parametrize("n", [3, 5])
    def test_exact_ties_match_the_enumeration_bit_for_bit(self, n):
        # A = I with utilities on a 0.1 grid puts many optima exactly on a face
        reg = quadratic_regularizer(np.eye(n))
        points = np.round(np.random.default_rng(n).uniform(-2.0, 2.0, (1000, n)), 1)
        np.testing.assert_array_equal(solve_ram(reg, points).x_star,
                                      enumerated_quadratic_argmax(reg, points))

    def test_figure_two_matches_the_enumeration_bit_for_bit(self):
        reg = modelspec.demo_quadratic_model().regularizer
        points = np.zeros((401, 3))
        points[:, 0] = np.round(np.arange(-200, 201) * 0.01, 10)
        np.testing.assert_array_equal(solve_ram(reg, points).x_star,
                                      enumerated_quadratic_argmax(reg, points))

    def test_a_vertex_at_fifteen_takes_at_most_2n_steps(self):
        # the enumeration tried every support of two or more first: 32,753 solves
        n = 15
        mu = np.zeros(n)
        mu[0] = 10.0
        result = solve_ram(quadratic_regularizer(np.eye(n)), mu)
        assert result.converged
        assert result.iterations <= 2 * n
        assert result.kkt_residual <= SOLVER_TOL
        np.testing.assert_array_equal(result.x_star, np.eye(n)[0])


class TestQuadraticPaths:
    """The walk at huge utilities and past n = 15."""

    @pytest.mark.parametrize("scale", [1e8, 1e9, 1e12])
    def test_huge_utilities_meet_kkt(self, scale):
        # the walk's systems see utilities relative to the largest, so
        # nothing cancels; before that, hundreds of these points came back
        # marked converged with KKT residuals up to 2e-5
        reg = quadratic_regularizer(COUPLING)
        points = np.random.default_rng(31).uniform(-scale, scale, (2000, 3))
        result = solve_ram(reg, points)
        assert np.all(result.converged)
        kkt = [verify_kkt(reg, mu, x) for mu, x in zip(points, result.x_star)]
        assert max(kkt) <= SOLVER_TOL

    @pytest.mark.parametrize("n, matrices, points", [
        (2, 6, 150), (3, 6, 150), (5, 6, 120), (8, 6, 100), (13, 6, 60), (21, 6, 30),
        (34, 3, 30), (60, 3, 24)])
    def test_stress_envelope_needs_no_second_path(self, n, matrices, points):
        # the walk is the quadratic's only solver: at condition numbers to
        # 5e10, near-singular rank-one couplings, utilities to 1e12 and exact
        # ties, every point finishes within 2n steps and meets KKT to the
        # rounding of its utilities
        rng = np.random.default_rng([60, n])
        for kind in range(matrices):
            reg = quadratic_regularizer(stress_matrix(rng, n, kind % 3))
            scale = 10.0 ** rng.choice([0, 4, 8, 12], size=(points, 1))
            mu = rng.uniform(-1.0, 1.0, (points, n)) * scale
            tied = rng.random(points) < 0.3
            mu[tied] = np.round(rng.uniform(-2.0, 2.0, (tied.sum(), n))) * scale[tied]
            result = solve_ram(reg, mu)
            assert np.all(result.converged)
            assert np.max(result.iterations) <= 2 * n
            bound = np.maximum(SOLVER_TOL, 1e-14 * np.max(np.abs(mu), axis=1))
            assert np.all(result.kkt_residual <= bound)

    @pytest.mark.parametrize("fault, steps", [
        # a sign-flipped system: the walk drops x_1 and takes it back for ever
        (lambda m: core.bordered(-m), 12),
        # a doubled unit-sum row: the walk ends on coordinates summing to 1/2
        (lambda m: core.bordered(m) * np.array([1.0, 1.0, 1.0, 2.0])[:, None], 3)],
        ids=["cycle", "off_sum"])
    def test_an_unfinished_walk_is_unconverged(self, monkeypatch, tmp_path, fault, steps):
        monkeypatch.setattr(ram, "bordered", fault)
        mu = np.array([2.0, -2.0, 0.0])
        result = solve_ram(quadratic_regularizer(np.eye(3)), mu)
        assert not result.converged and result.iterations == steps
        with pytest.raises(core.NumericError, match="did not converge"):
            ram_welfare(quadratic_regularizer(np.eye(3))).gradient(mu)
        spec = tmp_path / "quadratic.json"
        spec.write_text('{"kind": "ram_quadratic", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
        assert main(["eval", "--spec", str(spec), "--mu=2,-2,0"]) == 3

    def test_diagonal_sixteen_matches_water_filling(self):
        rng = np.random.default_rng(32)
        a = rng.uniform(0.5, 2.0, 16)
        reg = quadratic_regularizer(np.diag(a))
        for mu in rng.uniform(-3.0, 3.0, (5, 16)):
            lo, hi = float(np.min(mu)) - 2.0 * float(np.max(a)), float(np.max(mu))
            for _ in range(200):  # the total of max(0, (mu - lam) / 2a) falls in lam
                lam = 0.5 * (lo + hi)
                if np.sum(np.maximum(0.0, (mu - lam) / (2.0 * a))) > 1.0:
                    lo = lam
                else:
                    hi = lam
            expected = np.maximum(0.0, (mu - 0.5 * (lo + hi)) / (2.0 * a))
            result = solve_ram(reg, mu)
            assert result.converged
            np.testing.assert_allclose(result.x_star, expected, atol=1e-9)

    def test_dense_twenty_converges(self):
        rng = np.random.default_rng(33)
        b = rng.normal(size=(20, 20))
        reg = quadratic_regularizer(b @ b.T / 20.0 + 0.5 * np.eye(20))
        for mu in rng.uniform(-3.0, 3.0, (5, 20)):
            result = solve_ram(reg, mu)
            assert result.converged
            assert verify_kkt(reg, mu, result.x_star) <= SOLVER_TOL


class TestVerifyKKT:
    def test_exact_optimum_has_tiny_residual(self):
        reg = entropy_regularizer(1.0, 3)
        mu = np.array([1.0, 0.0, 0.0])
        x_opt = np.array([math.e, 1.0, 1.0]) / (math.e + 2.0)
        assert verify_kkt(reg, mu, x_opt) <= 1e-8

    def test_perturbed_point_detected(self):
        reg = entropy_regularizer(1.0, 3)
        mu = np.array([1.0, 0.0, 0.0])
        x_opt = np.array([math.e, 1.0, 1.0]) / (math.e + 2.0)
        vertex = np.array([1.0, 0.0, 0.0])
        x_bad = x_opt + 1e-3 * (vertex - x_opt)
        x_bad = x_bad / x_bad.sum()
        assert verify_kkt(reg, mu, x_bad) > 1e-4

    def test_uniform_point_residual_value(self):
        # at the uniform point the entropy gradient is constant, so the
        # residual reduces to max_i |mu_i - mean(mu)| = 2/3
        reg = entropy_regularizer(1.0, 3)
        residual = verify_kkt(reg, np.array([1.0, 0.0, 0.0]), np.ones(3) / 3)
        assert abs(residual - 2.0 / 3.0) <= 1e-12

    def test_nan_coordinate_is_not_certified(self):
        reg = entropy_regularizer(1.0, 3)
        x = np.array([np.nan, 0.5, 0.5])
        assert verify_kkt(reg, np.zeros(3), x) == math.inf
        np.testing.assert_array_equal(
            verify_kkt(reg, np.zeros((2, 3)), np.stack([x, np.ones(3) / 3])), [math.inf, 0.0])
