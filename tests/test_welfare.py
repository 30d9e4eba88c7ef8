"""Closed-form welfare models and the axiom/bound checkers."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice import core
from welfarechoice.cli import main
from welfarechoice.duality import conjugate_V
from welfarechoice.modelspec import build_model
from welfarechoice.welfare import (GEVGenerator, GeneratorInvalidError,
                                   WelfareModel, check_axioms,
                                   check_generator_signs, check_superlinear,
                                   estimate_superlinear_bounds, gev_welfare,
                                   log_sum_welfare, mnl_welfare, model_bounds,
                                   nested_logit_welfare)

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
                               H=lambda y, e=eta: float(np.sum(y ** (1.0 / e))),
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
            return sum(float(np.sum(y[b] ** (1.0 / l)) ** l)
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
            return float(y[0] + y[1] + y[2] + np.sqrt(y[0] * y[1]))

        gm = gev_welfare(GEVGenerator(eta=1.0, H=H), 3)
        direct = brand_model()
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.uniform(-5, 5, 3)
            assert abs(gm.value(mu) - direct.value(mu)) <= 1e-8

    def test_non_homogeneous_generator_rejected(self):
        bad = GEVGenerator(eta=1.0, H=lambda y: float(np.sum(y) + 1.0))
        with pytest.raises(GeneratorInvalidError):
            gev_welfare(bad, 3)

    def test_negative_generator_rejected(self):
        bad = GEVGenerator(eta=1.0, H=lambda y: float(y[0] - y[1]))
        with pytest.raises(GeneratorInvalidError):
            gev_welfare(bad, 2)

    def test_sign_report_separates_extreme_value_generators(self):
        # the power sum has alternating partials; the shared-brand term has
        # a positive second cross partial, so its model has no
        # random-utility interpretation even though it is a valid welfare
        power = GEVGenerator(eta=1.0, H=lambda y: float(np.sum(y)))
        assert check_generator_signs(power, 3).passed
        shared = GEVGenerator(
            eta=1.0, H=lambda y: float(y[0] + y[1] + y[2] + np.sqrt(y[0] * y[1])))
        rep = check_generator_signs(shared, 3)
        assert not rep.passed
        assert rep.verdict(1).passed and rep.verdict(3).passed
        assert rep.verdict(2).witness_indices == (0, 1)
        # construction still accepts it (only nonnegativity and homogeneity
        # are hard requirements)
        gev_welfare(shared, 3)

    def test_sign_report_has_one_verdict_per_order(self):
        power = GEVGenerator(eta=1.0, H=lambda y: float(np.sum(y)))
        rep = check_generator_signs(power, 3, samples=10, max_order=2)
        assert rep.max_order == 2
        assert [v.order for v in rep.verdicts] == [1, 2]
        # 10 points: 3 first-order and 3 second-order tuples each
        assert [v.tuples_tested for v in rep.verdicts] == [30, 30]
        assert all(v.passed and v.witness_point is None for v in rep.verdicts)

    def test_sign_report_refuses_high_orders(self):
        power = GEVGenerator(eta=1.0, H=lambda y: float(np.sum(y)))
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
        assert model_bounds(model)[1]

    def test_conjugate_on_seven_alternatives_skips_the_grid(self):
        calls = []
        model = build_model({"kind": "gev_custom", "eta": 1.0,
                             "exponents": np.eye(7).tolist()}).model
        counted = replace(model, value=lambda mu: calls.append(1) or model.value(mu))
        x = np.arange(1.0, 8.0) / 28.0
        assert abs(conjugate_V(counted, x) - float(np.sum(x * np.log(x)))) <= 1e-6
        assert len(calls) < 5 ** 7

    def test_bound_grid_refused_above_the_cap(self):
        calls = []
        inner = mnl_welfare(1.0, 8)
        model = WelfareModel(n=8, gradient=inner.gradient,
                             value=lambda mu: calls.append(1) or inner.value(mu))
        with pytest.raises(ValueError, match="5\\^8"):
            estimate_superlinear_bounds(model)
        with pytest.raises(ValueError):
            conjugate_V(model, np.ones(8) / 8)
        assert calls == []

    def test_gradient_without_partials_is_fd_of_value(self):
        gen = GEVGenerator(eta=0.5, H=lambda y: float(np.sum(y ** 2)))
        gm = gev_welfare(gen, 3)
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = rng.uniform(-3, 3, 3)
            np.testing.assert_array_equal(
                gm.gradient(mu), core.finite_diff_gradient(gm.value, mu))


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

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_refused(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_superlinear(mnl_welfare(1.0, 3), np.zeros(3), samples=samples)


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
