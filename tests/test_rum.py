"""Monte Carlo simulation, the binary noise construction, and sign tests."""

import math
import os
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice.core import MC_CHUNK, NumericError, mc_partitions, stream_rng
from welfarechoice.modelspec import build_model
from welfarechoice.ram import (entropy_regularizer, exponential_marginal,
                               mdm_regularizer, mmm_regularizer, ram_welfare)
from welfarechoice import rum
from welfarechoice.rum import (InvalidBinaryWelfareError, THREADS_ENV,
                               NoiseSampler, binary_rum_from_welfare, degenerate_sampler,
                               gumbel_sampler, logistic_sampler,
                               mc_choice_probs, mc_estimates, mc_welfare,
                               mc_welfare_model, normal_sampler, rum_sign_test)
from welfarechoice.transforms import scale
from welfarechoice.welfare import (GEVGenerator, WelfareModel, batch_value, gev_welfare,
                                   log_sum_welfare, mnl_welfare, nested_logit_welfare)

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_a_stack_of_points_matches_each_point_alone(self, monkeypatch, family, threads):
        monkeypatch.setenv(THREADS_ENV, threads)
        sampler, samples = SAMPLERS[family](3), 2 * MC_CHUNK + 17
        points = np.array([[0.25, 0.0, 0.25], [0.0, -1.0, 0.5], [1.0, 1.0, 1.0]])
        for mu, (probs, welfare) in zip(points, mc_estimates(sampler, points, samples, 5)):
            alone = mc_choice_probs(sampler, mu, samples, 5)
            np.testing.assert_array_equal(probs.probs, alone.probs)
            np.testing.assert_array_equal(probs.std_errors, alone.std_errors)
            assert welfare == mc_welfare(sampler, mu, samples, 5)

    def test_a_stack_draws_each_partition_once(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "1")
        sizes = []

        def draw(rng, size):
            sizes.append(size)
            return gumbel_sampler(1.0, 3).draw(rng, size)

        sampler = NoiseSampler(n=3, family="counted", draw=draw)
        mc_estimates(sampler, np.zeros((4, 3)), 2 * MC_CHUNK + 17, seed=1)
        assert sizes == [MC_CHUNK, MC_CHUNK, 17]

    def test_panel_value_and_gradient_share_one_tally(self, monkeypatch):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), 1000, seed=2)
        calls = []
        tally = rum._tally

        def counted(mu, cols):
            calls.append(mu)
            return tally(mu, cols)

        monkeypatch.setattr(rum, "_tally", counted)
        mu = np.array([0.5, 0.0, -0.5])
        w, q = model.value(mu), model.gradient(mu)
        q[0] = -1.0  # a caller's edit does not reach the kept tally
        assert len(calls) == 1
        assert model.gradient(mu)[0] != -1.0
        model.value(np.zeros(3))
        assert model.value(mu) == w and len(calls) == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_panel_equals_a_run_bit_for_bit(self, monkeypatch, family, threads):
        # three partitions: a run adds its partitions' tallies in order, and
        # a panel that summed all its draws at once differed in the last bits
        monkeypatch.setenv(THREADS_ENV, threads)
        sampler, samples = SAMPLERS[family](3), 2 * MC_CHUNK + 17
        model = mc_welfare_model(sampler, samples, seed=5)
        points = np.random.default_rng(6).uniform(-1.0, 1.0, (20, 3))
        for mu, (probs, welfare) in zip(points, mc_estimates(sampler, points, samples, 5)):
            assert model.value(mu) == welfare.value
            np.testing.assert_array_equal(model.gradient(mu), probs.probs)

    def test_panel_stack_tallies_each_point_on_each_partition_once(self, monkeypatch):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), 2 * MC_CHUNK + 17, seed=2)
        pairs = []  # (point, partition), the partition named by its first draw
        tally = rum._tally

        def counted(mu, cols):
            pairs.append((mu.tobytes(), cols.shape[1], cols[:, 0].tobytes()))
            return tally(mu, cols)

        monkeypatch.setattr(rum, "_tally", counted)
        points = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 3))
        values, grads = model.value(points), model.gradient(points)
        assert len(set(pairs)) == len(pairs) == 12  # the order is free
        assert sorted(size for _, size, _ in pairs) == [17] * 4 + [MC_CHUNK] * 8
        values[0], grads[0, 0] = np.nan, -1.0  # an edit does not reach the kept estimates
        assert np.isfinite(model.value(points)[0]) and model.gradient(points)[0, 0] != -1.0
        assert len(pairs) == 12

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


def counted_sampler(sizes, draw=None):
    """A gumbel(1) sampler, or one over `draw`, that records each partition size it draws."""
    inner = draw or gumbel_sampler(1.0, 3).draw

    def counted(rng, size):
        sizes.append(size)
        return inner(rng, size)

    return NoiseSampler(n=3, family="counted", draw=counted)


class TestLastRun:
    """A sampler keeps its last run: the probabilities and the welfare at one
    point, samples and seed cost one simulation, and read as a fresh run does."""

    SAMPLES = 2 * MC_CHUNK + 17
    MU = np.array([0.5, 0.0, -0.5])

    def test_probs_then_welfare_draw_each_partition_once(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "1")
        sizes = []
        sampler = counted_sampler(sizes)
        probs = mc_choice_probs(sampler, self.MU, self.SAMPLES, seed=3)
        welfare = mc_welfare(sampler, self.MU, self.SAMPLES, seed=3)
        assert sizes == [MC_CHUNK, MC_CHUNK, 17]
        fresh_probs = mc_choice_probs(gumbel_sampler(1.0, 3), self.MU, self.SAMPLES, 3)
        fresh_welfare = mc_welfare(gumbel_sampler(1.0, 3), self.MU, self.SAMPLES, 3)
        np.testing.assert_array_equal(probs.probs, fresh_probs.probs)
        np.testing.assert_array_equal(probs.std_errors, fresh_probs.std_errors)
        assert welfare == fresh_welfare
        assert (probs.samples, probs.seed) == (fresh_probs.samples, fresh_probs.seed)

    @pytest.mark.parametrize("change", ["mu", "seed", "samples", "sampler"])
    def test_another_run_draws_again(self, monkeypatch, change):
        monkeypatch.setenv(THREADS_ENV, "1")
        sizes = []
        sampler = counted_sampler(sizes)
        args = dict(mu=self.MU, samples=self.SAMPLES, seed=3)
        mc_choice_probs(sampler, **args)
        first = len(sizes)
        other = {"mu": dict(args, mu=self.MU + [0.0, 0.0, 1e-9]),
                 "seed": dict(args, seed=4), "samples": dict(args, samples=self.SAMPLES + 1),
                 "sampler": args}[change]
        if change == "sampler":
            sampler = counted_sampler(sizes)
        mc_welfare(sampler, **other)
        assert first == 3 and len(sizes) == 6

    def test_an_edited_result_does_not_reach_the_kept_run(self):
        sampler = gumbel_sampler(1.0, 3)
        res = mc_choice_probs(sampler, self.MU, 1000, seed=3)
        kept = res.probs.copy(), res.std_errors.copy()
        res.probs[0], res.std_errors[0] = -1.0, -1.0
        again = mc_choice_probs(sampler, self.MU, 1000, seed=3)
        np.testing.assert_array_equal(again.probs, kept[0])
        np.testing.assert_array_equal(again.std_errors, kept[1])

    def test_threads_sharing_a_sampler_read_their_own_runs(self):
        # callers on one sampler replace its last run under each other: each
        # must still get the estimates of its own arguments
        def model_value(sampler, mu, samples, seed):  # a model reads the same kept run
            return mc_welfare_model(sampler, samples, seed).value(mu)

        sampler = gumbel_sampler(1.0, 3)
        calls = [(call, seed) for seed in (1, 2, 3)
                 for call in (mc_choice_probs, mc_welfare, model_value)]
        fresh = [call(gumbel_sampler(1.0, 3), self.MU, 1000, seed) for call, seed in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(call, sampler, self.MU, 1000, seed)
                           for _ in range(20) for call, seed in calls]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, fresh * 20):
            if hasattr(want, "probs"):
                np.testing.assert_array_equal(got.probs, want.probs)
            else:
                assert got == want

    def test_nan_draws_raise_on_every_call(self):
        def draw(rng, size):
            eps = rng.standard_normal((size, 3))
            eps[::10, 1] = np.nan
            return eps

        sizes = []
        sampler = counted_sampler(sizes, draw)
        for call in (mc_choice_probs, mc_welfare, mc_choice_probs):
            with pytest.raises(NumericError, match="a draw has no largest alternative"):
                call(sampler, np.zeros(3), 1000, seed=1)
        assert sizes == [1000] * 3

    def test_a_kept_infinite_mean_maximum_still_raises(self):
        def draw(rng, size):
            eps = rng.standard_normal((size, 3))
            eps[:, 0] = np.inf
            return eps

        sizes = []
        sampler = counted_sampler(sizes, draw)
        np.testing.assert_array_equal(
            mc_choice_probs(sampler, np.zeros(3), 1000, seed=1).probs, [1.0, 0.0, 0.0])
        for _ in range(2):
            with pytest.raises(NumericError, match="the mean maximum.* has value"):
                mc_welfare(sampler, np.zeros(3), 1000, seed=1)
        assert sizes == [1000]


BAD_POINTS = [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], 0.5]


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

    def test_panel_empty_stack_gives_empty_results(self):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), 1000, seed=1)
        assert model.value(np.empty((0, 3))).shape == (0,)
        assert model.gradient(np.empty((0, 3))).shape == (0, 3)
        assert batch_value(model, np.empty((0, 3))).shape == (0,)

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
        with pytest.raises(NumericError, match="a draw has no largest alternative"):
            mc_welfare(sampler, np.zeros(3), 1000, seed=1)
        model = mc_welfare_model(sampler, 1000, seed=1)
        with pytest.raises(NumericError):
            model.value(np.zeros(3))
        with pytest.raises(NumericError):
            model.gradient(np.zeros(3))

    def test_infinite_draws_are_refused_by_the_welfare_only(self):
        # an alternative drawn at +inf every time read welfare inf with a nan
        # error; its winner counts are well defined
        def draw(rng, size):
            eps = rng.standard_normal((size, 2))
            eps[:, 0] = np.inf
            return eps

        sampler = NoiseSampler(n=2, family="inf", draw=draw)
        with pytest.raises(NumericError, match="the mean maximum.* has value"):
            mc_welfare(sampler, np.zeros(2), 1000, seed=1)
        model = mc_welfare_model(sampler, 1000, seed=1)
        with pytest.raises(NumericError, match="the mean maximum.* has value"):
            model.value(np.zeros(2))
        np.testing.assert_array_equal(model.gradient(np.zeros(2)), [1.0, 0.0])
        res = mc_choice_probs(sampler, np.zeros(2), 1000, seed=1)
        np.testing.assert_array_equal(res.probs, [1.0, 0.0])
        np.testing.assert_array_equal(res.std_errors, [0.0, 0.0])

    def test_infinite_maxima_of_both_signs_do_not_warn(self):
        # +inf in the first draw and -inf in the rest: the sum of the maxima
        # is inf - inf, which warned before the NumericError
        def draw(rng, size):
            eps = np.full((size, 2), -np.inf)
            eps[0] = np.inf
            return eps

        sampler = NoiseSampler(n=2, family="inf-both", draw=draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="the mean maximum.* has value"):
                mc_welfare(sampler, np.zeros(2), 1000, seed=1)
            res = mc_choice_probs(sampler, np.zeros(2), 1000, seed=1)
        np.testing.assert_array_equal(res.probs, [1.0, 0.0])

    def test_draws_whose_squares_overflow_do_not_warn(self):
        # the sum of squared maxima overflows; it feeds only the welfare's
        # standard error, which reads nan, so `mc_welfare` refuses the point
        # (it returned the nan) and every other number is as before
        def draw(rng, size):
            return 1e160 * (1.0 + rng.random((size, 3)))

        sampler = NoiseSampler(n=3, family="huge", draw=draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mc_choice_probs(sampler, np.zeros(3), 1000, seed=1)
            [(_, est)] = mc_estimates(sampler, [np.zeros(3)], 1000, seed=1)
            with pytest.raises(NumericError, match=r"has value (inf|nan) at mu=\[0.0, 0.0, 0.0\]"):
                mc_welfare(sampler, np.zeros(3), 1000, seed=1)
        np.testing.assert_array_equal(res.probs, [0.369, 0.306, 0.325])
        assert est.value == 1.7481164096000934e+160 and math.isnan(est.std_error)


    @pytest.mark.parametrize("sampler, value_overflows", [
        (normal_sampler(1e155, 2), False), (normal_sampler(1e307, 2), True),
        (gumbel_sampler(1e307, 2), True)], ids=["normal-squares", "normal", "gumbel"])
    def test_a_non_finite_welfare_is_refused_naming_the_point(self, sampler, value_overflows):
        # mc_welfare returned a nan standard error, with an inf value where the
        # sum of the maxima overflows too; the choice probabilities stay valid
        with pytest.raises(NumericError, match=r"has value (inf|nan) at mu=\[0.0, 0.0\]"):
            mc_welfare(sampler, np.zeros(2), 1000, seed=1)
        probs = mc_choice_probs(sampler, np.zeros(2), 1000, seed=1).probs
        model = mc_welfare_model(sampler, 1000, seed=1)
        np.testing.assert_array_equal(model.gradient(np.zeros(2)), probs)
        points = np.array([[1.0, 0.0], [0.0, 0.0]])
        if value_overflows:
            with pytest.raises(NumericError, match=r"has value (inf|nan) at mu=\[1.0, 0.0\]"):
                model.value(points)
        else:
            assert np.all(np.isfinite(model.value(points)))


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
        # a sampler each, so the second run draws instead of reading the first's
        a = mc_choice_probs(gumbel_sampler(1.0, 3), np.array([1.0, 0.0, -1.0]), 150000, seed=3)
        b = mc_choice_probs(gumbel_sampler(1.0, 3), np.array([1.0, 0.0, -1.0]), 150000, seed=3)
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

    @pytest.mark.parametrize("threads", ["two", "1.5", ""])
    def test_a_thread_count_that_is_not_an_integer_means_one(self, monkeypatch, threads):
        monkeypatch.setenv(THREADS_ENV, threads)
        assert rum._thread_count() == 1

    def test_thread_count_does_not_change_results(self):
        # a sampler per call, so every call draws instead of reading a kept run
        def sampler():
            return gumbel_sampler(1.0, 3)

        mu = np.array([0.5, 0.0, -0.5])
        old = os.environ.get(THREADS_ENV)
        try:
            os.environ[THREADS_ENV] = "1"
            seq = mc_choice_probs(sampler(), mu, 300000, seed=4)
            wseq = mc_welfare(sampler(), mu, 300000, seed=4)
            os.environ[THREADS_ENV] = "4"
            par = mc_choice_probs(sampler(), mu, 300000, seed=4)
            wpar = mc_welfare(sampler(), mu, 300000, seed=4)
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


RAM2 = [{"kind": "ram_entropy", "n": 2, "eta": 1.0},
        {"kind": "ram_quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]]},
        {"kind": "ram_logbarrier", "n": 2},
        {"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": 1.0},
                                          {"family": "normal", "sd": 1.5}]},
        {"kind": "ram_mmm", "sigma": [1.0, 2.0]},
        {"kind": "ram_cmm", "covariance": [[9.0, 0.9], [0.9, 9.0]]}]


# two-alternative models that carry V: (the factor of their logit xi, the model)
BINARY_WITH_V = {
    "mnl_0.25": (0.25, lambda: mnl_welfare(0.25, 2)),
    "mnl_1": (1.0, lambda: mnl_welfare(1.0, 2)),
    "mnl_4": (4.0, lambda: mnl_welfare(4.0, 2)),
    "nested_one_nest": (0.1, lambda: nested_logit_welfare([[0, 1]], [0.1], 2)),
    "nested_singletons": (1.0, lambda: nested_logit_welfare([[0], [1]], [0.2, 0.9], 2)),
    "scale_mnl": (2.5, lambda: scale(mnl_welfare(1.0, 2), 2.5)),
    "scale_nested": (1.5, lambda: scale(nested_logit_welfare([[0, 1]], [0.5], 2), 3.0)),
}


def logit_without_V(eta):
    """Two-alternative logit without its V, so its xi is the Newton inversion's."""
    return replace(mnl_welfare(eta, 2), regularizer=None)


class TestBinaryConstruction:
    def test_mnl_slice_derivative_is_logistic_cdf(self):
        construction = binary_rum_from_welfare(mnl_welfare(1.0, 2))
        grid = np.linspace(-25.0, 25.0, 1001)
        logistic = 1.0 / (1.0 + np.exp(-grid))
        assert np.max(np.abs(construction.xi_cdf(grid) - logistic)) <= 1e-10

    def test_a_gev_logit_without_partials_gives_the_logistic_cdf(self):
        # its q sums to 1 by construction, so q_1 neither exceeds 1 nor drops
        # along the grid by more than the construction's slack
        gm = gev_welfare(GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1)), 2)
        construction = binary_rum_from_welfare(gm)
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

    @pytest.mark.parametrize("eta", [1.0, 4.0])
    def test_inverted_xi_is_the_scaled_logit_into_both_tails(self, eta):
        construction = binary_rum_from_welfare(logit_without_V(eta))
        u = np.concatenate([np.geomspace(1e-300, 0.5, 3000),
                            1.0 - np.geomspace(2.0 ** -53, 0.5, 3000),
                            np.random.default_rng(16).random(3000)])
        xi = eta * (np.log(u) - np.log1p(-u))
        inside = np.abs(xi) < construction.bracket
        assert np.sum(inside & (u < 1e-9)) > 20 and np.sum(inside & (u > 1.0 - 1e-9)) > 20
        assert np.max(np.abs(construction.sample_xi(u[inside]) - xi[inside])) <= 1e-12
        # past the bracket a draw keeps its end, as the bisection did
        assert np.all(np.abs(construction.sample_xi(u[~inside])) == construction.bracket)

    def test_a_step_cdf_ends_within_the_tolerance_of_its_jump(self):
        def gradient(mu):
            first = mu[..., 0] >= mu[..., 1]
            return np.stack([first, ~first], axis=-1).astype(float)

        step = WelfareModel(n=2, name="max", value=lambda mu: np.max(mu, axis=-1),
                            gradient=gradient)
        construction = binary_rum_from_welfare(step)
        u = np.concatenate([np.random.default_rng(17).random(500), [1e-300, 0.5, 1 - 1e-16]])
        assert np.max(np.abs(construction.sample_xi(u))) <= rum.XI_TOL

    def test_inverting_4096_logit_draws_takes_at_most_12_gradient_calls(self):
        model = logit_without_V(1.0)
        calls = []

        def gradient(mu):
            calls.append(np.shape(mu))
            return model.gradient(mu)

        construction = binary_rum_from_welfare(replace(model, gradient=gradient))
        calls.clear()
        construction.sample_xi(np.random.default_rng(18).random(4096))
        assert 0 < len(calls) <= 12

    def test_on_scaled_model_brackets_grow(self):
        construction = binary_rum_from_welfare(logit_without_V(4.0))
        assert construction.bracket > 32.0
        assert not construction.truncated

    @pytest.mark.parametrize("spec", RAM2, ids=[s["kind"] for s in RAM2])
    def test_ram_xi_read_from_V_matches_the_bisection(self, spec):
        model = build_model(spec).model
        construction = binary_rum_from_welfare(model)
        assert construction.bracket is None and not construction.truncated
        bisection = binary_rum_from_welfare(replace(model, regularizer=None))
        assert bisection.bracket is not None
        u = np.random.default_rng(15).uniform(1e-3, 1.0 - 1e-3, 200)
        xi = construction.sample_xi(u)
        assert np.all(np.abs(xi - bisection.sample_xi(u)) <= 1e-8 * np.maximum(1.0, np.abs(xi)))

    def test_sampling_a_ram_construction_makes_no_gradient_call(self):
        model = ram_welfare(mmm_regularizer([1.0, 2.0]))
        calls = []

        def gradient(mu):
            calls.append(np.shape(mu))
            return model.gradient(mu)

        construction = binary_rum_from_welfare(replace(model, gradient=gradient))
        calls.clear()
        est = mc_welfare(construction.sampler(), np.array([0.5, -0.5]), 20000, seed=1)
        assert calls == []
        assert abs(est.value - model.value(np.array([0.5, -0.5]))) <= 4 * est.std_error

    @pytest.mark.parametrize("name", list(BINARY_WITH_V))
    def test_closed_form_xi_read_from_V_is_the_inversion(self, name):
        # each model's xi is the logit scaled by the given factor
        factor, build = BINARY_WITH_V[name]
        model = build()
        construction = binary_rum_from_welfare(model)
        assert construction.bracket is None and not construction.truncated
        inversion = binary_rum_from_welfare(replace(model, regularizer=None))
        assert inversion.bracket is not None and not inversion.truncated
        u = np.random.default_rng(19).random(4096)
        xi = construction.sample_xi(u)
        assert np.max(np.abs(xi - inversion.sample_xi(u))) <= 1e-12
        assert np.max(np.abs(xi - factor * (np.log(u) - np.log1p(-u)))) <= 1e-12

    def test_a_wide_logit_is_not_truncated(self):
        # its CDF spreads past BRACKET_CAP, where the inversion's bracket stopped
        eta = 1e5
        construction = binary_rum_from_welfare(mnl_welfare(eta, 2))
        assert construction.bracket is None
        assert construction.truncated is False
        u = np.random.default_rng(20).random(4096)
        logit = eta * (np.log(u) - np.log1p(-u))
        assert np.max(np.abs(construction.sample_xi(u) - logit) / np.abs(logit)) <= 1e-12

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

    def test_a_decreasing_slice_is_refused(self):
        # q_1 = 1 - logistic(mu_1 - mu_2) stays in [0, 1] but falls
        def gradient(mu):
            p = 1.0 / (1.0 + np.exp(np.asarray(mu)[..., 0] - np.asarray(mu)[..., 1]))
            return np.stack([p, 1.0 - p], axis=-1)

        bad = WelfareModel(n=2, value=lambda mu: np.zeros(np.shape(mu)[:-1]),
                           gradient=gradient, name="falling_slope")
        with pytest.raises(InvalidBinaryWelfareError, match="decreasing on the grid"):
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

    def test_no_points_refused(self):
        with pytest.raises(ValueError, match="at least one point"):
            rum_sign_test(mnl_welfare(1.0, 3), 3, [])

    def test_points_of_the_wrong_length_refused(self):
        with pytest.raises(ValueError, match="5 entries, not one for each of 3"):
            rum_sign_test(mnl_welfare(1.0, 3), 3, [np.zeros(5)])

    def test_one_call_for_the_tolerances_and_one_per_tuple(self):
        m = mnl_welfare(1.0, 3)
        shapes = []

        def value(mu):
            shapes.append(mu.shape)
            return m.value(mu)

        points = np.random.default_rng(3).uniform(-2.0, 2.0, (7, 3))
        report = rum_sign_test(replace(m, value=value), 3, points)
        assert report.passed
        # 3 pairs of 4 stencil points and 1 triple of 8, at all 7 points
        assert shapes == [(7, 3)] + [(28, 3)] * 3 + [(56, 3)]


class TestMCWelfareModel:
    def test_model_is_deterministic_and_smooth(self):
        model = mc_welfare_model(gumbel_sampler(1.0, 3), samples=100000, seed=13)
        mu = np.array([0.5, 0.0, -0.5])
        q1 = model.gradient(mu)
        model.gradient(np.zeros(3))  # another stack: mu's draws are made again
        q2 = model.gradient(mu)
        np.testing.assert_array_equal(q1, q2)
        target = mnl_welfare(1.0, 3).gradient(mu)
        assert np.max(np.abs(q1 - target)) <= 0.01

    def test_memory_is_bounded_per_partition(self, monkeypatch):
        # the model holds no draws, so building it allocates next to nothing
        # whatever `samples` is, and an evaluation draws one partition at a
        # time, so its peak does not grow with the samples
        monkeypatch.setenv(THREADS_ENV, "1")
        sampler, mu = gumbel_sampler(1.0, 3), np.array([0.5, 0.0, -0.5])
        peaks = []
        for samples in (2 ** 18, 2 ** 22):
            tracemalloc.start()
            try:
                model = mc_welfare_model(sampler, samples, seed=4)
                assert tracemalloc.get_traced_memory()[0] < 2 ** 20
                tracemalloc.reset_peak()
                model.value(mu)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("samples", [0, -1])
    def test_too_few_samples_are_refused_when_built(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            mc_welfare_model(gumbel_sampler(1.0, 3), samples, seed=1)
