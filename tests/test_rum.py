"""Monte Carlo simulation, the binary noise construction, and sign tests."""

import math
import os

import numpy as np
import pytest

from welfarechoice.core import MC_CHUNK, NumericError, mc_partitions, stream_rng
from welfarechoice.ram import (entropy_regularizer, exponential_marginal,
                               mdm_regularizer, mmm_regularizer, ram_welfare)
from welfarechoice.rum import (InvalidBinaryWelfareError, THREADS_ENV,
                               NoiseSampler, binary_rum_from_welfare, degenerate_sampler,
                               gumbel_sampler, logistic_sampler,
                               mc_choice_probs, mc_welfare, mc_welfare_model,
                               normal_sampler, rum_sign_test)
from welfarechoice.welfare import WelfareModel, log_sum_welfare, mnl_welfare

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    return log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


def iid_logistic_binary_welfare(nodes=200):
    """Welfare of the two-alternative iid standard-logistic noise model.

    With translation invariance, w(mu) = mu_2 + E[max(d + e1, e2)] at
    d = mu_1 - mu_2, and conditioning on e2 gives the smooth integral
    E[log(1 + exp(d - e2))] + E[e2], evaluated by Gauss-Legendre quadrature
    after the logistic quantile substitution.
    """
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x_gl + 1.0)
    weights = 0.5 * w_gl
    y = np.log(u) - np.log1p(-u)

    def value(mu):
        mu = np.asarray(mu, dtype=float)
        d = mu[..., 0] - mu[..., 1]
        soft = np.logaddexp(0.0, d[..., None] - y)
        return mu[..., 1] + np.sum(weights * soft, axis=-1)

    def gradient(mu):
        mu = np.asarray(mu, dtype=float)
        d = mu[..., 0] - mu[..., 1]
        q1 = np.sum(weights / (1.0 + np.exp(y - d[..., None])), axis=-1)
        return np.stack([q1, 1.0 - q1], axis=-1)

    return WelfareModel(n=2, value=value, gradient=gradient,
                        superlinear_bounds=None, name="iid_logistic_binary")


def tie_sampler(n):
    """Draws from {-inf, 0, 0.25, 1}: with utilities on the same grid, rows
    tie exactly and some alternatives can never win; column 0 stays finite
    so every row maximum is."""
    levels = np.array([-np.inf, 0.0, 0.25, 1.0])

    def draw(rng, size):
        eps = levels[rng.integers(0, 4, (size, n))]
        eps[:, 0] = np.maximum(eps[:, 0], 0.0)
        return eps

    return NoiseSampler(n=n, family="ties", draw=draw)


def reference_mc(sampler, mu, samples, seed):
    """Winner counts and the sums of m and m^2, m the row maximum, by
    np.argmax and np.max over each partition's (size, n) draws."""
    counts = np.zeros(sampler.n, dtype=np.int64)
    total = total_sq = 0.0
    for idx, start, stop in mc_partitions(samples):
        rows = mu[None, :] + sampler.draw(stream_rng(seed, idx), stop - start)
        counts += np.bincount(np.argmax(rows, axis=1), minlength=sampler.n)
        m = np.max(rows, axis=1)
        total += float(np.sum(m))
        total_sq += float(np.sum(m * m))
    return counts, total, total_sq


SAMPLERS = {"gumbel": lambda n: gumbel_sampler(1.0, n), "ties": tie_sampler}


class TestColumnKernels:
    """The column-wise reductions against np.max / np.argmax, bit for bit."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("samples", [1000, 2 * MC_CHUNK + 17])
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_mc_runs_match_the_reference(self, monkeypatch, family, n, samples, threads):
        monkeypatch.setenv(THREADS_ENV, threads)
        sampler = SAMPLERS[family](n)
        mu = np.resize([0.25, 0.0, 0.25, -0.75], n)  # exact ties with the draws
        counts, total, total_sq = reference_mc(sampler, mu, samples, seed=n)
        probs = mc_choice_probs(sampler, mu, samples, seed=n)
        welfare = mc_welfare(sampler, mu, samples, seed=n)
        np.testing.assert_array_equal(probs.probs, counts / samples)
        mean = total / samples
        assert welfare.value == mean
        assert welfare.std_error == np.sqrt(max(total_sq / samples - mean * mean, 0.0)
                                            / samples)

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_panel_matches_a_concatenated_panel(self, family):
        sampler, samples = SAMPLERS[family](3), MC_CHUNK + 5
        model = mc_welfare_model(sampler, samples, seed=9)
        panel = np.concatenate([sampler.draw(stream_rng(9, idx), stop - start)
                                for idx, start, stop in mc_partitions(samples)])
        points = np.array([[0.25, 0.0, 0.25], [0.0, -1.0, 0.5], [1.0, 1.0, 1.0]])
        for mu in points:
            rows = mu[None, :] + panel
            assert model.value(mu) == float(np.mean(np.max(rows, axis=1)))
            np.testing.assert_array_equal(
                model.gradient(mu),
                np.bincount(np.argmax(rows, axis=1), minlength=3) / samples)


BAD_POINTS = [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]]


class TestMCValidation:
    """A utility vector of the wrong length or with a non-finite entry, and
    draws containing NaN, are refused by every Monte Carlo entry point,
    never reduced to a number."""

    @pytest.mark.parametrize("mu", BAD_POINTS)
    def test_runs_refuse(self, mu):
        sampler = gumbel_sampler(1.0, 3)
        with pytest.raises(ValueError):
            mc_welfare(sampler, mu, 1000, seed=1)
        with pytest.raises(ValueError):
            mc_choice_probs(sampler, mu, 1000, seed=1)

    @pytest.mark.parametrize("mu", BAD_POINTS)
    def test_panel_refuses(self, mu):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), 1000, seed=1)
        with pytest.raises(ValueError):
            model.value(np.asarray(mu))
        with pytest.raises(ValueError):
            model.gradient(np.asarray(mu))

    def test_nan_draws_are_refused(self):
        # a NaN draw has no largest alternative; np.argmax credited the first
        # NaN and the welfare mean came back nan
        def draw(rng, size):
            eps = rng.standard_normal((size, 3))
            eps[::10, 1] = np.nan
            return eps

        sampler = NoiseSampler(n=3, family="nan", draw=draw)
        with pytest.raises(NumericError):
            mc_choice_probs(sampler, np.zeros(3), 1000, seed=1)
        with pytest.raises(NumericError):
            mc_welfare(sampler, np.zeros(3), 1000, seed=1)
        model = mc_welfare_model(sampler, 1000, seed=1)
        with pytest.raises(NumericError):
            model.value(np.zeros(3))
        with pytest.raises(NumericError):
            model.gradient(np.zeros(3))


class TestMCChoiceProbs:
    def test_gumbel_symmetric(self):
        res = mc_choice_probs(gumbel_sampler(1.0, 3), np.zeros(3), 200000, seed=0)
        for p, se in zip(res.probs, res.std_errors):
            assert abs(p - 1.0 / 3.0) <= 3 * se

    def test_gumbel_matches_mnl_closed_form(self):
        m = mnl_welfare(1.0, 3)
        mu = np.array([1.0, 0.0, 0.0])
        res = mc_choice_probs(gumbel_sampler(1.0, 3), mu, 400000, seed=1)
        target = m.gradient(mu)
        for p, se, q in zip(res.probs, res.std_errors, target):
            assert abs(p - q) <= 3.5 * se

    def test_normal_binary_symmetric(self):
        res = mc_choice_probs(normal_sampler(1.0, 2), np.zeros(2), 200000, seed=2)
        assert abs(res.probs[0] - 0.5) <= 3 * res.std_errors[0]

    def test_deterministic_given_seed(self):
        sampler = gumbel_sampler(1.0, 3)
        a = mc_choice_probs(sampler, np.array([1.0, 0.0, -1.0]), 150000, seed=3)
        b = mc_choice_probs(sampler, np.array([1.0, 0.0, -1.0]), 150000, seed=3)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_gumbel_matches_mnl_within_4se_at_1e6(self):
        m = mnl_welfare(1.0, 3)
        sampler = gumbel_sampler(1.0, 3)
        rng = np.random.default_rng(20)
        for k in range(20):
            mu = rng.uniform(-3, 3, 3)
            res = mc_choice_probs(sampler, mu, 10 ** 6, seed=100 + k)
            target = m.gradient(mu)
            for p, se, q in zip(res.probs, res.std_errors, target):
                assert abs(p - q) <= 4 * max(se, 1e-9)

    def test_thread_count_does_not_change_results(self):
        sampler = gumbel_sampler(1.0, 3)
        mu = np.array([0.5, 0.0, -0.5])
        old = os.environ.get(THREADS_ENV)
        try:
            os.environ[THREADS_ENV] = "1"
            seq = mc_choice_probs(sampler, mu, 300000, seed=4)
            wseq = mc_welfare(sampler, mu, 300000, seed=4)
            os.environ[THREADS_ENV] = "4"
            par = mc_choice_probs(sampler, mu, 300000, seed=4)
            wpar = mc_welfare(sampler, mu, 300000, seed=4)
        finally:
            if old is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = old
        np.testing.assert_array_equal(seq.probs, par.probs)
        assert wseq.value == wpar.value


class TestMCWelfare:
    def test_gumbel_welfare_offset_by_measured_constant(self):
        # location-0 Gumbel noise shifts the expected maximum by a constant;
        # measure it at the origin instead of hard-coding it
        sampler = gumbel_sampler(1.0, 3)
        m = mnl_welfare(1.0, 3)
        origin = mc_welfare(sampler, np.zeros(3), 400000, seed=5)
        constant = origin.value - m.value(np.zeros(3))
        mu = np.array([0.7, -0.3, 0.1])
        est = mc_welfare(sampler, mu, 400000, seed=6)
        assert abs(est.value - constant - m.value(mu)) <= \
            4 * math.hypot(est.std_error, origin.std_error)

    def test_degenerate_noise_gives_max(self):
        est = mc_welfare(degenerate_sampler(3), np.array([0.3, 2.0, -1.0]),
                         1000, seed=0)
        assert est.value == 2.0
        assert est.std_error == 0.0

    def test_logistic_rum_welfare_agrees_with_its_construction(self):
        # cross-oracle: the welfare of the iid-logistic two-alternative
        # model, evaluated by quadrature, must be reproduced both by direct
        # iid sampling and by the scalar-variable construction built from it
        model = iid_logistic_binary_welfare()
        construction = binary_rum_from_welfare(model)
        rng = np.random.default_rng(14)
        for _ in range(2):
            mu = rng.uniform(-2, 2, 2)
            w = float(model.value(mu))
            direct = mc_welfare(logistic_sampler(1.0, 2), mu, 200000, seed=7)
            assert abs(direct.value - w) <= 4 * direct.std_error
            constructed = mc_welfare(construction.sampler(), mu, 30000, seed=8)
            assert abs(constructed.value - w) <= 4 * constructed.std_error


class TestBinaryConstruction:
    def test_mnl_slice_derivative_is_logistic_cdf(self):
        construction = binary_rum_from_welfare(mnl_welfare(1.0, 2))
        grid = np.linspace(-25.0, 25.0, 1001)
        logistic = 1.0 / (1.0 + np.exp(-grid))
        assert np.max(np.abs(construction.xi_cdf(grid) - logistic)) <= 1e-10

    def test_sampled_xi_matches_cdf(self):
        construction = binary_rum_from_welfare(mnl_welfare(1.0, 2))
        rng = np.random.default_rng(8)
        xi = construction.sample_xi(rng.random(200000))
        xs = np.sort(xi)
        empirical = np.arange(1, xs.size + 1) / xs.size
        ks = np.max(np.abs(construction.xi_cdf(xs) - empirical))
        assert ks <= 0.004

    def test_expected_max_reproduces_welfare(self):
        m = mnl_welfare(1.0, 2)
        construction = binary_rum_from_welfare(m)
        rng = np.random.default_rng(9)
        xi = construction.sample_xi(rng.random(200000))
        eps = construction.noise_from_xi(xi)
        for _ in range(5):
            mu = rng.uniform(-3, 3, 2)
            vals = np.max(mu[None, :] + eps, axis=1)
            se = float(np.std(vals) / math.sqrt(vals.size))
            assert abs(float(np.mean(vals)) - m.value(mu)) <= 4 * se

    def test_noise_has_finite_stable_absolute_moments(self):
        construction = binary_rum_from_welfare(mnl_welfare(1.0, 2))
        rng = np.random.default_rng(10)
        means = []
        for size in (50000, 100000, 200000):
            xi = construction.sample_xi(rng.random(size))
            eps = construction.noise_from_xi(xi)
            means.append(np.mean(np.abs(eps), axis=0))
        for m_a, m_b in zip(means, means[1:]):
            assert np.max(np.abs(m_a - m_b)) <= 0.02
        assert np.all(np.isfinite(means[-1]))

    def test_on_scaled_model_brackets_grow(self):
        construction = binary_rum_from_welfare(mnl_welfare(4.0, 2))
        assert construction.bracket > 32.0
        assert not construction.truncated

    def test_requires_two_alternatives(self):
        with pytest.raises(ValueError):
            binary_rum_from_welfare(mnl_welfare(1.0, 3))

    def test_invalid_slice_rejected(self):
        # a gradient that is not within [0, 1] cannot be a CDF
        bad = WelfareModel(
            n=2,
            value=lambda mu: 2.0 * np.asarray(mu)[..., 0],
            gradient=lambda mu: np.broadcast_to([2.0, -1.0], np.shape(mu)),
            name="bad_slope")
        with pytest.raises(InvalidBinaryWelfareError):
            binary_rum_from_welfare(bad)


class TestSignTests:
    def test_mnl_passes_orders_two_and_three(self):
        m = mnl_welfare(1.0, 4)
        rng = np.random.default_rng(11)
        points = [rng.uniform(-3, 3, 4) for _ in range(20)]
        report = rum_sign_test(m, max_order=3, points=points)
        assert report.passed
        assert report.verdict(2).tuples_tested == 20 * 6
        assert report.verdict(3).tuples_tested == 20 * 4

    def test_brand_model_violates_order_two_when_third_dominates(self):
        # cross effect between the brand-sharing pair turns positive once
        # the outside alternative is strong enough
        m = brand_model()
        report = rum_sign_test(m, max_order=2, points=[np.array([0.0, 0.0, 3.0])])
        assert not report.passed
        assert report.verdict(2).witness_indices == (0, 1)

    def test_brand_model_passes_at_origin(self):
        m = brand_model()
        report = rum_sign_test(m, max_order=2, points=[np.zeros(3)])
        assert report.passed

    def test_separable_ram_welfare_passes_order_two(self):
        models = [ram_welfare(entropy_regularizer(1.0, 3)),
                  ram_welfare(mdm_regularizer([exponential_marginal(1.0)] * 3)),
                  ram_welfare(mmm_regularizer([2.0, 2.0, 2.0]))]
        rng = np.random.default_rng(12)
        points = [rng.uniform(-1.5, 1.5, 3) for _ in range(5)]
        for model in models:
            report = rum_sign_test(model, max_order=2, points=points)
            assert report.passed, model.name

    def test_order_above_three_refused(self):
        with pytest.raises(ValueError):
            rum_sign_test(mnl_welfare(1.0, 4), max_order=4, points=[np.zeros(4)])


class TestMCWelfareModel:
    def test_frozen_panel_is_deterministic_and_smooth(self):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), samples=100000, seed=13)
        mu = np.array([0.5, 0.0, -0.5])
        q1 = model.gradient(mu)
        q2 = model.gradient(mu)
        np.testing.assert_array_equal(q1, q2)
        target = mnl_welfare(1.0, 3).gradient(mu)
        assert np.max(np.abs(q1 - target)) <= 0.01
