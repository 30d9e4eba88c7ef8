"""Closed-form welfare models and the axiom/bound checkers."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice import core, welfare
from welfarechoice.cli import main
from welfarechoice.duality import conjugate_V
from welfarechoice.modelspec import build_model
from welfarechoice.ram import quadratic_regularizer, ram_welfare
from welfarechoice.transforms import MixtureComponent, cross, mix
from welfarechoice.welfare import (AxiomCheck, AxiomReport, GEVGenerator,
                                   GeneratorInvalidError, WelfareModel, check_axioms,
                                   check_generator_signs, check_superlinear,
                                   gev_welfare, log_sum_welfare, mnl_welfare,
                                   model_bounds, nested_logit_welfare)

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    """log(e^m1 + e^m2 + e^m3 + e^{(m1+m2)/2}): two products share a brand."""
    return log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


class TestMNL:
    def test_symmetric_point(self):
        m = mnl_welfare(1.0, 3)
        assert abs(m(np.zeros(3)) - math.log(3)) <= 1e-12
        np.testing.assert_allclose(m.gradient(np.zeros(3)), np.ones(3) / 3,
                                   atol=1e-12)

    def test_closed_form_point(self):
        # log(e + 2) and (e, 1, 1)/(e + 2), cross-checked by differences
        m = mnl_welfare(1.0, 3)
        mu = np.array([1.0, 0.0, 0.0])
        assert abs(m(mu) - 1.5514447139320509) <= 1e-12
        expected_q = np.array([math.e, 1.0, 1.0]) / (math.e + 2.0)
        np.testing.assert_allclose(m.gradient(mu), expected_q, atol=1e-12)
        np.testing.assert_allclose(expected_q,
                                   [0.5761168848, 0.2119415576, 0.2119415576],
                                   atol=1e-10)
        fd = core.finite_diff_gradient(m.value, mu)
        np.testing.assert_allclose(fd, expected_q, atol=1e-8)

    def test_translation(self):
        m = mnl_welfare(1.0, 3)
        assert abs(m(np.zeros(3) + 2.0) - (math.log(3) + 2.0)) <= 1e-12

    def test_no_overflow_at_extreme_utilities(self):
        m = mnl_welfare(1.0, 3)
        mu = np.array([700.0, -700.0, 0.0])
        assert np.isfinite(m(mu))
        assert np.all(np.isfinite(m.gradient(mu)))

    @pytest.mark.parametrize("build", [
        lambda: mnl_welfare(1.0, 3),
        lambda: mix([MixtureComponent(mnl_welfare(1.0, 3), (0, 1, 2), 0.5),
                     MixtureComponent(mnl_welfare(2.0, 2), (0, 1), 0.5)], n=3)],
        ids=["mnl", "mix"])
    def test_a_spread_past_the_float_range_does_not_warn(self, build):
        # the shift overflowed to -inf, right, but warned "overflow encountered in subtract"
        mu = np.array([1e308, -1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build().value(mu) == 1e308
            np.testing.assert_array_equal(build().gradient(mu), [1.0, 0.0, 0.0])
            assert welfare.logsumexp(mu) == 1e308
            np.testing.assert_array_equal(welfare.softmax(mu), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("mu", [[1e308, 0.0, 0.0], [1e308, -1e308, 0.0]])
    def test_a_low_temperature_at_the_float_limit(self, mu):
        # mu / eta overflowed before the shift, so w and q were NaN
        m = mnl_welfare(0.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.value(np.array(mu)) == 1e308
            np.testing.assert_array_equal(m.gradient(np.array(mu)), [1.0, 0.0, 0.0])

    def test_unit_temperature_keeps_its_bits(self):
        # the shift then the division by eta = 1 is the unscaled formula, bit for bit
        m = mnl_welfare(1.0, 4)
        mu = np.random.default_rng(3).uniform(-30.0, 30.0, (200, 4))
        top = mu.max(axis=-1, keepdims=True)
        z = np.exp(mu - top)
        np.testing.assert_array_equal(m.value(mu), np.log(z.sum(axis=-1)) + top[:, 0])
        np.testing.assert_array_equal(m.gradient(mu), z / z.sum(axis=-1, keepdims=True))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            mnl_welfare(0.0, 3)


class TestNestedLogit:
    def test_single_nest_reduces_to_mnl(self):
        nl = nested_logit_welfare([[0, 1, 2]], [1.0], 3)
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(1)
        for _ in range(100):
            mu = rng.uniform(-5, 5, 3)
            assert abs(nl.value(mu) - m.value(mu)) <= 1e-10
            np.testing.assert_allclose(nl.gradient(mu), m.gradient(mu),
                                       atol=1e-10)

    def test_singleton_nests_reduce_to_mnl(self):
        nl = nested_logit_welfare([[0], [1], [2]], [0.3, 0.9, 0.5], 3)
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            mu = rng.uniform(-5, 5, 3)
            assert abs(nl.value(mu) - m.value(mu)) <= 1e-10
            np.testing.assert_allclose(nl.gradient(mu), m.gradient(mu),
                                       atol=1e-10)

    def test_two_nests_gradient_identity(self):
        nl = nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3)
        q = nl.gradient(np.zeros(3))
        assert abs(float(np.sum(q)) - 1.0) <= 1e-12
        fd = core.finite_diff_gradient(nl.value, np.zeros(3))
        np.testing.assert_allclose(q, fd, atol=1e-8)

    @pytest.mark.parametrize("level", [1.0, 1e4, 1e8, 1e12, 1e14, 1e15, 1e16])
    def test_probabilities_read_utility_differences(self, level):
        # from mu / lambda less the nest log-sums, the unit sum was off by
        # 1.9e-3 at 1e14 and q was (1, 1, 0) at 1e16
        nl = nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3)
        mu = np.array([level, level + 1.0, 0.0])
        q = nl.gradient(mu)
        np.testing.assert_allclose(q, nl.gradient(mu - np.max(mu)), rtol=0.0, atol=1e-12)
        assert abs(float(np.sum(q)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("level", [0.0, 1e8, 1e15, 1e307, 1e308])
    def test_value_adds_the_largest_utility_back(self, level):
        # mu / lambda overflowed at 1e308, and w was nan
        nl = nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3)
        mu = np.array([level, 0.0, 0.0])
        w = nl.value(mu)
        assert np.isfinite(w) and w == level + nl.value(mu - level)

    @pytest.mark.parametrize("mu, q", [
        ([-1e308, -1e308, 1e308], [0.0, 0.0, 1.0]),
        ([1e308, 1e308, -1e308], [0.5, 0.5, 0.0])], ids=["low_pair", "low_single"])
    def test_a_nest_wholly_past_the_float_range_below_the_top(self, tmp_path, capsys, mu, q):
        # the nest's log-sum was -inf - -inf: w and q were nan, and eval exited 3
        nl = nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3)
        assert nl.value(np.array(mu)) == 1e308
        np.testing.assert_array_equal(nl.gradient(np.array(mu)), q)
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"kind": "nested_logit", "n": 3, "nests": [[1, 2], [3]],
                                    "lambdas": [0.5, 1.0]}))
        assert main(["eval", "--spec", str(path), "--mu=" + ",".join(map(str, mu))]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert [float(v) for v in row[3:]] == [1e308] + q

    def test_empty_nest_rejected(self):
        with pytest.raises(ValueError):
            nested_logit_welfare([[0, 1, 2], []], [0.5, 0.5], 3)

    def test_partition_required(self):
        with pytest.raises(ValueError):
            nested_logit_welfare([[0, 1], [1, 2]], [0.5, 0.5], 3)


class TestGEV:
    def test_power_sum_generator_reproduces_mnl(self):
        for eta in (0.5, 1.0, 2.0):
            gen = GEVGenerator(eta=eta,
                               H=lambda y, e=eta: np.sum(y ** (1.0 / e), axis=-1),
                               partials=lambda y, e=eta: y ** (1.0 / e - 1.0) / e)
            gm = gev_welfare(gen, 3)
            m = mnl_welfare(eta, 3)
            rng = np.random.default_rng(3)
            for _ in range(100):
                mu = rng.uniform(-5, 5, 3)
                assert abs(gm.value(mu) - m.value(mu)) <= 1e-8
                np.testing.assert_allclose(gm.gradient(mu), m.gradient(mu),
                                           atol=1e-8)

    def test_nested_generator_reproduces_nested_logit(self):
        lam = [0.5, 1.0]
        blocks = [[0, 1], [2]]

        def H(y):
            return sum(np.sum(y[..., b] ** (1.0 / l), axis=-1) ** l
                       for b, l in zip(blocks, lam))

        gm = gev_welfare(GEVGenerator(eta=1.0, H=H), 3)
        nl = nested_logit_welfare(blocks, lam, 3)
        rng = np.random.default_rng(4)
        for _ in range(30):
            mu = rng.uniform(-4, 4, 3)
            assert abs(gm.value(mu) - nl.value(mu)) <= 1e-8
            np.testing.assert_allclose(gm.gradient(mu), nl.gradient(mu),
                                       atol=1e-5)

    def test_brand_generator_matches_log_sum_model(self):
        def H(y):
            return y[..., 0] + y[..., 1] + y[..., 2] + np.sqrt(y[..., 0] * y[..., 1])

        gm = gev_welfare(GEVGenerator(eta=1.0, H=H), 3)
        direct = brand_model()
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.uniform(-5, 5, 3)
            assert abs(gm.value(mu) - direct.value(mu)) <= 1e-8

    def test_non_homogeneous_generator_rejected(self):
        bad = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1) + 1.0)
        with pytest.raises(GeneratorInvalidError):
            gev_welfare(bad, 3)

    def test_negative_generator_rejected(self):
        bad = GEVGenerator(eta=1.0, H=lambda y: y[..., 0] - y[..., 1])
        with pytest.raises(GeneratorInvalidError):
            gev_welfare(bad, 2)

    @pytest.mark.parametrize("with_partials", [False, True])
    def test_a_vanishing_generator_is_refused_by_value_and_gradient(self, with_partials):
        # H = sqrt(y1 y2) + 0 y3 vanishes where e^{mu_2} underflows, and q
        # would be 0 / 0 there: the gradient raises the value's error instead
        def partials(y):
            root = np.sqrt(y[..., 0] * y[..., 1])
            return np.stack([0.5 * root / y[..., 0], 0.5 * root / y[..., 1],
                             np.zeros_like(root)], axis=-1)

        gen = GEVGenerator(eta=1.0, H=lambda y: np.sqrt(y[..., 0] * y[..., 1]) + 0.0 * y[..., 2],
                           partials=partials if with_partials else None)
        model = gev_welfare(gen, 3)
        mu = np.array([0.0, -800.0, 0.0])
        for call in (model.value, model.gradient):
            with pytest.raises(GeneratorInvalidError, match="H vanished"):
                call(mu)
            with pytest.raises(GeneratorInvalidError, match="H vanished"):
                call(np.stack([np.zeros(3), mu]))
        np.testing.assert_allclose(model.gradient(np.zeros(3)), [0.5, 0.5, 0.0], atol=1e-9)

    def test_sign_report_separates_extreme_value_generators(self):
        # the power sum has alternating partials; the shared-brand term has
        # a positive second cross partial, so its model has no
        # random-utility interpretation even though it is a valid welfare
        power = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1))
        assert check_generator_signs(power, 3).passed
        shared = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1)
                              + np.sqrt(y[..., 0] * y[..., 1]))
        rep = check_generator_signs(shared, 3)
        assert not rep.passed
        assert rep.verdict(1).passed and rep.verdict(3).passed
        assert rep.verdict(2).witness_indices == (0, 1)
        with pytest.raises(KeyError):
            rep.verdict(4)  # an order the report did not test
        # construction still accepts it (only nonnegativity and homogeneity
        # are hard requirements)
        gev_welfare(shared, 3)

    def test_sign_report_has_one_verdict_per_order(self):
        power = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1))
        rep = check_generator_signs(power, 3, samples=10, max_order=2)
        assert rep.max_order == 2
        assert [v.order for v in rep.verdicts] == [1, 2]
        # 10 points: 3 first-order and 3 second-order tuples each
        assert [v.tuples_tested for v in rep.verdicts] == [30, 30]
        assert all(v.passed and v.witness_point is None for v in rep.verdicts)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sign_report_refuses_no_samples(self, samples):
        power = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1))
        with pytest.raises(ValueError, match="samples"):
            check_generator_signs(power, 3, samples=samples)

    def test_sign_report_refuses_high_orders(self):
        power = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1))
        with pytest.raises(ValueError):
            check_generator_signs(power, 3, max_order=4)

    def test_analytic_superlinear_bound_holds_and_is_tight(self):
        # eta = 1/2, rows sum to 2; the repeated first row makes H(e_1) = 2
        spec = {"kind": "gev_custom", "eta": 0.5,
                "exponents": [[2, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 0]]}
        model = build_model(spec).model
        np.testing.assert_allclose(model.superlinear_bounds,
                                   [0.5 * math.log(2.0), 0.0, 0.0], rtol=1e-15)
        bounds, estimated = model_bounds(model)
        assert not estimated
        assert check_superlinear(model, bounds, samples=2000, seed=0).passed
        for i in range(3):
            mu = np.zeros(3)
            mu[i] = 40.0
            assert model.value(mu) - mu[i] - bounds[i] <= 1e-12

    def test_no_analytic_bound_when_a_corner_vanishes(self):
        spec = {"kind": "gev_custom", "eta": 1.0,
                "exponents": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]}
        model = build_model(spec).model
        assert model.superlinear_bounds is None
        with pytest.raises(ValueError, match="no analytic superlinear bounds"):
            model_bounds(model)

    def test_conjugate_on_seven_alternatives_skips_the_grid(self):
        calls = []
        model = build_model({"kind": "gev_custom", "eta": 1.0,
                             "exponents": np.eye(7).tolist()}).model
        counted = replace(model, value=lambda mu: calls.append(1) or model.value(mu))
        x = np.arange(1.0, 8.0) / 28.0
        assert abs(conjugate_V(counted, x) - float(np.sum(x * np.log(x)))) <= 1e-6
        assert len(calls) < 5 ** 7

    def test_bound_grid_refused_above_the_cap(self):
        # no bound is estimated, so eight alternatives without analytic
        # bounds get their conjugate, from a handful of evaluations
        calls = []
        inner = mnl_welfare(1.0, 8)
        model = WelfareModel(n=8, gradient=inner.gradient,
                             value=lambda mu: calls.append(1) or inner.value(mu))
        x = np.arange(1.0, 9.0) / 36.0
        assert abs(conjugate_V(model, x) - float(np.sum(x * np.log(x)))) <= 1e-6
        assert len(calls) < 100

    def test_gradient_without_partials_sums_to_one_and_is_fd_of_value(self):
        # q = d / sum d, d the log-space differences of H, whose sum is H / eta
        gen = GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1))
        gm = gev_welfare(gen, 3)
        mu = np.random.default_rng(11).uniform(-3, 3, (10, 3))
        q = gm.gradient(mu)
        assert np.max(np.abs(q.sum(axis=-1) - 1.0)) <= 1e-15
        np.testing.assert_allclose(q, core.finite_diff_gradient(gm.value, mu), rtol=0, atol=1e-9)

    def test_a_spread_past_the_float_range_keeps_its_answer(self):
        # mu - max mu overflows at -1e308 - 1e308: floored, so y = 0 there
        for partials in (None, lambda y: 2.0 * y):
            gm = gev_welfare(GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1),
                                          partials=partials), 3)
            mu = np.array([1e308, -1e308, 0.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                w, q = gm.value(mu), gm.gradient(mu)
            assert w == 1e308
            assert q.tolist() == [1.0, 0.0, 0.0]

    def test_a_per_point_generator_gets_the_contract_error(self):
        gen = GEVGenerator(eta=1.0, H=lambda y: float(np.sum(y)))
        with pytest.raises(ValueError, match="pointwise"):
            gev_welfare(gen, 3)
        gm = gev_welfare(replace(gen, H=welfare.pointwise(gen.H)), 3)
        np.testing.assert_allclose(gm.gradient(np.zeros(3)), np.full(3, 1.0 / 3), atol=1e-10)

    def test_a_gradient_without_partials_makes_one_check_per_stencil(self, monkeypatch):
        # the stencil of H(e^s) is checked once, as a scalar function; H
        # wrapped in its own check inside the Jacobian's made two:
        # [(2, 4, 3, 3), (24, 3)]
        gm = gev_welfare(GEVGenerator(0.8, H=lambda y: np.sum(y ** 1.25, axis=-1)), 3)
        checks = []
        evaluate = core._evaluate

        def counted(*args):
            checks.append(np.shape(args[1]))
            return evaluate(*args)

        for module in (core, welfare):
            monkeypatch.setattr(module, "_evaluate", counted)
        gm.gradient(np.zeros((4, 3)))
        assert checks == [(2, 4, 3, 3)]

    @pytest.mark.parametrize("late", [
        lambda y: float(np.sum(y)),
        lambda y: np.stack([np.sum(y ** 1.25, axis=-1)] * 2, axis=-1)],
        ids=["per-point", "vector"])
    def test_a_generator_off_the_contract_gets_the_error_from_gradient(self, late):
        # H is swapped after the model is built, so only `gradient` sees it
        H = [lambda y: np.sum(y ** 1.25, axis=-1)]
        gm = gev_welfare(GEVGenerator(0.8, H=lambda y: H[0](y)), 3)
        H[0] = late
        with pytest.raises(ValueError, match="the function must broadcast over"):
            gm.gradient(np.zeros((4, 3)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_alternatives_refused(self, n):
        gen = GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1))
        with pytest.raises(ValueError, match="at least one alternative"):
            gev_welfare(gen, n)
        with pytest.raises(ValueError, match="at least one alternative"):
            check_generator_signs(gen, n)

    @pytest.mark.parametrize("partials", [None, lambda y: 4.0 * y], ids=["fd", "partials"])
    def test_gradient_of_an_empty_stack_has_the_stack_shape(self, partials):
        # a gradient keeps its point's shape, an empty stack's too
        gm = gev_welfare(GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1),
                                      partials=partials), 3)
        assert gm.gradient(np.empty((0, 3))).shape == (0, 3)
        assert gm.gradient(np.empty((2, 0, 3))).shape == (2, 0, 3)
        assert gm.value(np.empty((2, 0, 3))).shape == (2, 0)
        points = np.random.default_rng(12).uniform(-3, 3, (2, 4, 3))
        assert gm.gradient(points).shape == (2, 4, 3)


class TestLogSumModel:
    def test_brand_value(self):
        m = brand_model()
        mu = np.array([0.0, 0.0, 3.0])
        expected = math.log(1 + 1 + math.exp(3) + 1)
        assert abs(m.value(mu) - expected) <= 1e-12

    def test_gradient_matches_differences(self):
        m = brand_model()
        rng = np.random.default_rng(6)
        for _ in range(50):
            mu = rng.uniform(-5, 5, 3)
            fd = core.finite_diff_gradient(m.value, mu)
            np.testing.assert_allclose(m.gradient(mu), fd, atol=1e-6)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            log_sum_welfare([[0.5, 0.6, 0.0], [0.0, 0.0, 1.0]])


class TestGradientSimplexInvariant:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_models_produce_probabilities(self, n):
        models = [mnl_welfare(0.7, n),
                  nested_logit_welfare([list(range(n - 1)), [n - 1]],
                                       [0.6, 1.0], n)]
        rng = np.random.default_rng(n)
        for model in models:
            for _ in range(100):
                mu = rng.uniform(-5, 5, n)
                q = np.asarray(model.gradient(mu))
                assert abs(float(np.sum(q)) - 1.0) <= 1e-9
                assert np.min(q) >= -1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gradient_matches_fd_for_closed_forms(self, n):
        rng = np.random.default_rng(10 + n)
        models = [mnl_welfare(1.0, n), mnl_welfare(2.0, n)]
        for model in models:
            for _ in range(100):
                mu = rng.uniform(-5, 5, n)
                q = np.asarray(model.gradient(mu))
                fd = core.finite_diff_gradient(model.value, mu)
                assert np.max(np.abs(q - fd)) <= 1e-5 * max(1.0, np.max(np.abs(q)))

    def test_translation_invariance_specific_shifts(self):
        models = [mnl_welfare(1.0, 3), brand_model(),
                  nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3)]
        rng = np.random.default_rng(11)
        for model in models:
            for t in (-3.0, 0.7, 10.0):
                mu = rng.uniform(-5, 5, 3)
                shifted = model.value(mu + t) - model.value(mu) - t
                assert abs(shifted) <= 1e-8


class TestAxiomChecker:
    def test_mnl_passes(self):
        report = check_axioms(mnl_welfare(1.0, 3), samples=500, seed=0)
        assert report.all_passed

    def test_translation_violator_caught_with_witness(self):
        # w(mu) = max(mu1, mu2) + mu1 gains 2t under a uniform shift of t
        bad = WelfareModel(
            n=2,
            value=lambda mu: float(np.max(mu) + mu[0]),
            gradient=lambda mu: np.array([1.0, 0.0]),
            name="double_shift")
        report = check_axioms(bad, samples=500, seed=0)
        assert not report.translation_invariant.passed
        assert report.translation_invariant.witness is not None

    def test_a_lifted_model_that_fails_later_is_not_lifted_again(self):
        # per point: the first call, on a block, fails and lifts the model;
        # the lifted model then raises in the second block
        base, points = mnl_welfare(1.0, 2), []

        def value(mu):
            points.append(mu)
            if len(points) > 50:
                raise ValueError("model refused the point")
            return float(base.value(mu))

        model = WelfareModel(n=2, value=value, gradient=base.gradient, name="per_point")
        with pytest.raises(ValueError, match="model refused the point"):
            check_axioms(model, samples=100, seed=0)
        # the block call, the 9 fixed samples' 5 points each, lifted, and 5 more
        assert len(points) == 1 + 45 + 5

    def test_concave_violator_caught_with_witness(self):
        base = mnl_welfare(1.0, 3)
        bad = WelfareModel(
            n=3,
            value=lambda mu: -base.value(mu),
            gradient=lambda mu: -np.asarray(base.gradient(mu)),
            name="negated")
        report = check_axioms(bad, samples=500, seed=0)
        assert not report.convex.passed
        assert report.convex.witness is not None

    def test_early_stop_reports_draws_made(self):
        # decreasing, not translation invariant and strictly concave: every
        # axiom fails on the first draw, so the loop stops after one sample
        bad = WelfareModel(
            n=2,
            value=lambda mu: float(-np.sum(mu) - 0.01 * mu @ mu),
            gradient=lambda mu: -1.0 - 0.02 * np.asarray(mu),
            name="all_wrong")
        report = check_axioms(bad, samples=50, seed=0)
        assert not (report.monotonic.passed or report.translation_invariant.passed
                    or report.convex.passed)
        assert report.samples_used == 1

    @pytest.mark.parametrize("box", [np.nan, np.inf, 0.0, -1.0, 1e308])
    def test_box_must_be_positive_and_finite(self, box):
        # a NaN box would draw NaN points, whose comparisons find no violation
        with pytest.raises(ValueError, match="box"):
            check_axioms(mnl_welfare(1.0, 3), samples=10, box=box)


def per_sample_check_axioms(model, samples=1000, box=10.0, seed=0):
    """The one-sample-at-a-time loop that `check_axioms` evaluates in
    blocks: the reference for its draws, witnesses and `samples_used`."""
    rng = core.stream_rng(seed)
    n = model.n
    slack = 1e-9

    mono = AxiomCheck(True)
    trans = AxiomCheck(True)
    conv = AxiomCheck(True)
    shifts = [-3.0, 0.7, 10.0]

    for k in range(samples):
        mu = rng.uniform(-box, box, n)
        w_mu = model.value(mu)

        if mono.passed:
            delta = rng.uniform(0.0, box / 2, n)
            if model.value(mu + delta) < w_mu - slack:
                mono = AxiomCheck(False, {"mu": mu, "delta": delta,
                                          "gap": float(w_mu - model.value(mu + delta))})

        if trans.passed:
            t = shifts[k % len(shifts)] if k < 3 * len(shifts) else float(
                rng.uniform(-box, box))
            err = abs(model.value(mu + t * np.ones(n)) - w_mu - t)
            if err > 1e-8:
                trans = AxiomCheck(False, {"mu": mu, "t": t, "error": float(err)})

        if conv.passed:
            nu = rng.uniform(-box, box, n)
            mid = model.value(0.5 * (mu + nu))
            if 0.5 * (w_mu + model.value(nu)) < mid - slack:
                conv = AxiomCheck(False, {
                    "mu": mu, "nu": nu,
                    "gap": float(mid - 0.5 * (w_mu + model.value(nu)))})

        if not (mono.passed or trans.passed or conv.passed):
            break

    return AxiomReport(monotonic=mono, translation_invariant=trans,
                       convex=conv, samples_used=k + 1)


def assert_same_report(got: AxiomReport, want: AxiomReport):
    assert type(got.samples_used) is int and got.samples_used == want.samples_used
    for field in ("monotonic", "translation_invariant", "convex"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.passed == b.passed, field
        assert (a.witness is None) == (b.witness is None), field
        if a.witness is None:
            continue
        assert list(a.witness) == list(b.witness), field
        for key, value in b.witness.items():
            mine = a.witness[key]
            assert type(mine) is type(value), (field, key)
            if isinstance(value, np.ndarray):
                assert mine.shape == value.shape and mine.tobytes() == value.tobytes()
            else:
                assert float(mine).hex() == float(value).hex(), (field, key)


MNL3 = mnl_welfare(1.0, 3)


def patchy(mu):
    """Translation invariant but for a thin slab, and neither monotone nor
    convex where mu_1 - mu_2 is near 8: its axioms fail at different
    samples, some of them past the first 9."""
    mu = np.asarray(mu, dtype=float)
    return (MNL3.value(mu) - 3.0 * np.tanh(mu[..., 0] - mu[..., 1] - 8.0)
            + 1e-6 * np.maximum(mu[..., 2] - 9.0, 0.0) * (mu[..., 0] > 6.0))


def axiom_models():
    m2 = mnl_welfare(1.0, 2)
    return {
        "mnl": MNL3,
        "nested_logit": nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3),
        "mix": mix([MixtureComponent(m2, (0, 1), 0.5), MixtureComponent(m2, (1, 2), 0.5)], n=3),
        "cross": cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS),
        "ram_quadratic": ram_welfare(quadratic_regularizer(
            np.array([[3.0, 2.0, 0.0], [2.0, 3.0, 2.0], [0.0, 2.0, 3.0]]))),
        # per-point controls, evaluated through the fallback
        "double_shift": WelfareModel(n=2, value=lambda mu: float(np.max(mu) + mu[0]),
                                     gradient=None, name="double_shift"),
        "all_wrong": WelfareModel(n=2, value=lambda mu: float(-np.sum(mu) - 0.01 * mu @ mu),
                                  gradient=None, name="all_wrong"),
        # broadcasting controls
        "negated": WelfareModel(n=3, value=lambda mu: -MNL3.value(mu), gradient=None,
                                name="negated"),
        "patchy": WelfareModel(n=3, value=patchy, gradient=None, name="patchy"),
    }


class TestAxiomBlocks:
    """`check_axioms` draws and evaluates in blocks, with the stream, the
    witnesses and `samples_used` of one sample at a time."""

    @pytest.mark.parametrize("block", [4, welfare._DRAW_BLOCK])
    @pytest.mark.parametrize("label", list(axiom_models()))
    def test_reports_match_the_per_sample_loop(self, monkeypatch, label, block):
        # blocks of 4 put the failures and early stops inside later blocks
        model = axiom_models()[label]
        monkeypatch.setattr(welfare, "_DRAW_BLOCK", block)
        for samples, seed in [(150, 3), (400, 0), (20, 9), (5, 1)]:
            assert_same_report(check_axioms(model, samples=samples, seed=seed),
                               per_sample_check_axioms(model, samples=samples, seed=seed))

    @pytest.mark.parametrize("samples, seed, used", [
        (400, 0, 20), (150, 3, 16), (20, 9, 20), (1000, 2, 87)])
    def test_failures_land_in_later_blocks(self, monkeypatch, samples, seed, used):
        monkeypatch.setattr(welfare, "_DRAW_BLOCK", 4)
        report = check_axioms(axiom_models()["patchy"], samples=samples, seed=seed)
        assert report.samples_used == used
        assert not (report.translation_invariant.passed or report.convex.passed)

    @pytest.mark.parametrize("label, extra", [("mnl", 0), ("patchy", 2)])
    def test_one_call_per_block(self, label, extra):
        model = axiom_models()[label]
        calls = []

        def counted(mu):
            calls.append(np.shape(mu))
            return model.value(mu)

        report = check_axioms(replace(model, value=counted), samples=1000, seed=0)
        assert_same_report(report, per_sample_check_axioms(model, samples=1000, seed=0))
        # the first 9 samples, the blocks after them and one rewind per
        # failed axiom but the last
        assert len(calls) <= math.ceil(1000 / welfare._DRAW_BLOCK) + 1 + 2
        assert len(calls) == 2 + extra

    def test_per_point_model_keeps_its_verdict(self):
        model = axiom_models()["double_shift"]
        report = check_axioms(model, samples=1000, seed=0)
        assert not report.translation_invariant.passed
        assert report.monotonic.passed and report.convex.passed
        assert_same_report(report, per_sample_check_axioms(model, samples=1000, seed=0))

    @pytest.mark.parametrize("block", [4, welfare._DRAW_BLOCK])
    def test_non_finite_value_is_a_numeric_error(self, monkeypatch, block):
        # a NaN breaks no comparison, so this model once passed every axiom
        monkeypatch.setattr(welfare, "_DRAW_BLOCK", block)
        nan = WelfareModel(n=3, value=lambda mu: np.full(np.shape(mu)[:-1], np.nan),
                           gradient=None, name="nan")
        with pytest.raises(core.NumericError, match=r"nan has value nan at mu=\["):
            check_axioms(nan, samples=1000, seed=0)
        # NaN only where |mu_1| >= 9, at a point some sample reaches
        patchy_nan = WelfareModel(n=3, value=lambda mu: np.where(
            np.abs(mu[..., 0]) < 9.0, patchy(mu), np.nan), gradient=None, name="patchy_nan")
        with pytest.raises(core.NumericError, match="patchy_nan has value nan"):
            check_axioms(patchy_nan, samples=1000, seed=0)

    def test_values_past_the_first_violation_are_not_read(self):
        # every axiom fails at sample 0; the rest of the first block (samples
        # 1-8) is NaN, and the per-sample loop never draws it
        def value(mu):
            w = -np.sum(mu, axis=-1) - 0.01 * np.sum(mu * mu, axis=-1)
            if np.ndim(mu) == 2:
                w[5:] = np.nan
            return w

        model = WelfareModel(n=3, value=value, gradient=None, name="first_rows")
        report = check_axioms(model, samples=100, seed=0)
        assert not (report.monotonic.passed or report.translation_invariant.passed
                    or report.convex.passed)
        assert_same_report(report, per_sample_check_axioms(model, samples=100, seed=0))

    def test_golden_double_shift_witness(self):
        # criterion 3's negative control, recorded from the per-sample loop
        report = check_axioms(axiom_models()["double_shift"], samples=1000, box=10.0, seed=0)
        witness = report.translation_invariant.witness
        assert witness["mu"].tobytes().hex() == "ea16f837aeb721406e1f7f8ad4620dc0"
        assert witness["t"].hex() == "-0x1.8000000000000p+1"
        assert witness["error"].hex() == "0x1.8000000000000p+1"
        assert report.samples_used == 1000

    def test_golden_verify_axioms_stdout(self, tmp_path, capsys):
        path = tmp_path / "mnl.json"
        path.write_text(json.dumps({"kind": "mnl", "n": 3, "eta": 1.0}))
        assert main(["verify", "--spec", str(path), "--suite", "axioms",
                     "--samples", "200", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "axiom suite for mnl(eta=1) (200 samples, box 10):\n"
            "  monotonicity: pass (no violation found)\n"
            "  translation invariance: pass (no violation found)\n"
            "  convexity: pass (no violation found)\n")


class TestSuperlinear:
    def test_mnl_bound_zero_passes(self):
        report = check_superlinear(mnl_welfare(1.0, 3), np.zeros(3),
                                   samples=500, seed=0)
        assert report.passed

    def test_brand_model_bound_zero_passes(self):
        report = check_superlinear(brand_model(), np.zeros(3),
                                   samples=500, seed=0)
        assert report.passed

    def test_average_model_fails_with_witness(self):
        avg = WelfareModel(
            n=3,
            value=lambda mu: np.mean(mu, axis=-1),
            gradient=lambda mu: np.ones(3) / 3,
            name="average")
        # at mu = (3, 0, 0): w = 1 < 3
        report = check_superlinear(avg, np.zeros(3), samples=500, seed=0)
        assert not report.passed
        assert report.witness is not None
        assert abs(avg.value(np.array([3.0, 0.0, 0.0])) - 1.0) <= 1e-12

    def test_non_finite_value_is_a_numeric_error(self):
        # a NaN margin breaks no bound, so this model once passed with margin inf
        nan = WelfareModel(n=3, value=lambda mu: np.full(np.shape(mu)[:-1], np.nan),
                           gradient=None, name="nan")
        with pytest.raises(core.NumericError, match=r"nan has value nan at mu=\["):
            check_superlinear(nan, np.zeros(3), samples=100, seed=0)
        inf = WelfareModel(n=3, value=lambda mu: np.where(mu[..., 0] > 9.0, np.inf,
                                                           MNL3.value(mu)),
                           gradient=None, name="inf")
        with pytest.raises(core.NumericError, match="inf has value inf"):
            check_superlinear(inf, np.zeros(3), samples=1000, seed=0)

    def test_values_past_the_witness_are_not_read(self):
        # the average falls below max(mu) at the first draw; later ones are NaN
        def value(mu):
            w = np.mean(mu, axis=-1)
            w[1:] = np.nan
            return w

        model = WelfareModel(n=3, value=value, gradient=None, name="first_row")
        report = check_superlinear(model, np.zeros(3), samples=100, seed=0)
        assert not report.passed
        np.testing.assert_array_equal(report.witness["mu"],
                                      core.stream_rng(0).uniform(-10.0, 10.0, (100, 3))[0])

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_refused(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_superlinear(mnl_welfare(1.0, 3), np.zeros(3), samples=samples)

    @pytest.mark.parametrize("b", [None, [0.0, np.nan, 0.0], [0.0, 0.0]],
                             ids=["none", "nan", "wrong_length"])
    def test_a_bound_that_is_not_n_finite_numbers_is_refused(self, b):
        # None and NaN passed with margin inf, so a model without bounds
        # "passed" its own; a wrong length died broadcasting
        with pytest.raises(ValueError, match="b must be 3 finite numbers"):
            check_superlinear(mnl_welfare(1.0, 3), b, samples=10)

    @pytest.mark.parametrize("box", [np.nan, np.inf, 0.0, -1.0, 1e308])
    def test_box_must_be_positive_and_finite(self, box):
        with pytest.raises(ValueError, match="box"):
            check_superlinear(mnl_welfare(1.0, 3), np.zeros(3), samples=10, box=box)


class TestGEVCustomSpec:
    """`gev_custom` is evaluated as a crossed logit; these pin it to the
    generator H(y) = sum_k prod_i y_i^{E_ki} it describes."""

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_matches_the_generator_formula(self, eta):
        expo = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5],
                         [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]) / eta
        model = build_model({"kind": "gev_custom", "eta": eta,
                             "exponents": expo.tolist()}).model
        mu = np.random.default_rng(3).uniform(-5.0, 5.0, (200, 3))
        terms = np.prod(np.exp(mu)[:, None, :] ** expo, axis=-1)  # H's terms at e^mu
        h = terms.sum(axis=1)
        # q_i = eta y_i H_i(y) / H(y) with y_i H_i(y) = sum_k E_ki * term_k
        np.testing.assert_allclose(model.value(mu), eta * np.log(h), rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.gradient(mu), eta * (terms @ expo) / h[:, None],
                                   rtol=0, atol=1e-12)
        assert model.name == f"gev(eta={eta:g})"

    def test_duplicate_unit_rows_raise_the_bound(self, tmp_path):
        spec = {"kind": "gev_custom", "eta": 2.0,
                "exponents": [[0.5, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}
        model = build_model(spec).model
        np.testing.assert_array_equal(model.superlinear_bounds, [2.0 * math.log(2.0), 0.0, 0.0])
        path = tmp_path / "gev.json"
        path.write_text(json.dumps(spec))
        assert main(["verify", "--spec", str(path), "--suite", "superlinear",
                     "--samples", "500"]) == 0

    def test_one_row_is_linear(self):
        model = build_model({"kind": "gev_custom", "eta": 1.0,
                             "exponents": [[0.25, 0.75]]}).model
        mu = np.random.default_rng(4).uniform(-5.0, 5.0, (20, 2))
        np.testing.assert_allclose(model.value(mu), mu @ [0.25, 0.75], rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.gradient(mu), np.tile([0.25, 0.75], (20, 1)),
                                   rtol=0, atol=1e-15)
        assert model.superlinear_bounds is None

    def test_row_sums_within_1e_10_validate(self):
        model = build_model({"kind": "gev_custom", "eta": 1.0,
                             "exponents": [[1.0 + 1e-11, 0.0], [0.5, 0.5 - 1e-11],
                                           [0.0, 1.0]]}).model
        assert model.n == 2

    @pytest.mark.parametrize("exponents", [[[1.0]], [[1.0], [1.0]], [[float("nan"), 1.0]]],
                             ids=["one_column", "one_column_two_rows", "nan"])
    def test_refused_specs_exit_2(self, tmp_path, exponents):
        path = tmp_path / "gev.json"
        path.write_text(json.dumps({"kind": "gev_custom", "eta": 1.0,
                                    "exponents": exponents}))
        assert main(["validate", "--spec", str(path)]) == 2
