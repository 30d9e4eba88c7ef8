"""Scaling, mixing, and crossing composition operators."""

import json
import warnings

import numpy as np
import pytest

from welfarechoice.cli import main
from welfarechoice.core import NumericError, finite_diff_gradient
from welfarechoice.modelspec import build_model
from welfarechoice.rum import rum_sign_test
from welfarechoice.transforms import MixtureComponent, cross, mix, scale
from welfarechoice.welfare import (batch_gradient, batch_value, check_axioms,
                                   log_sum_welfare, mnl_welfare)

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


class TestScale:
    def test_scaling_mnl_changes_temperature(self):
        scaled = scale(mnl_welfare(1.0, 3), 2.0)
        target = mnl_welfare(2.0, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = rng.uniform(-5, 5, 3)
            assert abs(scaled.value(mu) - target.value(mu)) <= 1e-10
            np.testing.assert_allclose(scaled.gradient(mu),
                                       target.gradient(mu), atol=1e-10)

    def test_scale_by_one_is_identity(self):
        base = mnl_welfare(1.0, 3)
        scaled = scale(base, 1.0)
        mu = np.array([0.4, -0.6, 1.1])
        assert scaled.value(mu) == base.value(mu)

    def test_large_scale_flattens_choice(self):
        scaled = scale(mnl_welfare(1.0, 3), 1e3)
        q = np.asarray(scaled.gradient(np.array([1.0, 0.0, 0.0])))
        assert np.max(np.abs(q - 1.0 / 3.0)) <= 1e-3

    def test_composition_multiplies_factors(self):
        base = mnl_welfare(1.0, 3)
        twice = scale(scale(base, 2.0), 3.0)
        direct = scale(base, 6.0)
        rng = np.random.default_rng(1)
        for _ in range(30):
            mu = rng.uniform(-5, 5, 3)
            assert abs(twice.value(mu) - direct.value(mu)) <= 1e-10
            np.testing.assert_allclose(twice.gradient(mu),
                                       direct.gradient(mu), atol=1e-10)

    def test_an_overflowing_mu_over_eta_is_refused(self):
        # the inner model need not read utility differences, so scale does not
        # shift; mu / eta past the float range gave NaN after a RuntimeWarning
        scaled = scale(mnl_welfare(1.0, 3), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (scaled.value, scaled.gradient):
                with pytest.raises(NumericError, match="mu / eta overflows"):
                    call(np.array([1e308, 0.0, 0.0]))
            assert scaled.value(np.array([8e307, 0.0, 0.0])) == 8e307

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            scale(mnl_welfare(1.0, 2), 0.0)


class TestMix:
    def two_segment_mixture(self):
        m2 = mnl_welfare(1.0, 2)
        return mix([MixtureComponent(m2, (0, 1), 0.5),
                    MixtureComponent(m2, (1, 2), 0.5)], n=3)

    def test_overlapping_segments_at_origin(self):
        mixed = self.two_segment_mixture()
        q = np.asarray(mixed.gradient(np.zeros(3)))
        np.testing.assert_allclose(q, [0.25, 0.5, 0.25], atol=1e-12)

    def test_single_full_component_is_identity(self):
        base = mnl_welfare(1.0, 3)
        mixed = mix([MixtureComponent(base, (0, 1, 2), 1.0)], n=3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = rng.uniform(-4, 4, 3)
            assert abs(mixed.value(mu) - base.value(mu)) <= 1e-12

    def test_mixture_passes_axioms(self):
        report = check_axioms(self.two_segment_mixture(), samples=500, seed=0)
        assert report.all_passed

    def test_gradient_stays_on_simplex(self):
        mixed = self.two_segment_mixture()
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = np.asarray(mixed.gradient(rng.uniform(-6, 6, 3)))
            assert abs(float(np.sum(q)) - 1.0) <= 1e-12
            assert np.min(q) >= 0.0

    def test_zero_weight_component_kept_harmlessly(self):
        m2 = mnl_welfare(1.0, 2)
        m3 = mnl_welfare(1.0, 3)
        mixed = mix([MixtureComponent(m3, (0, 1, 2), 1.0),
                     MixtureComponent(m2, (0, 1), 0.0)], n=3)
        mu = np.array([1.0, 0.0, -1.0])
        assert abs(mixed.value(mu) - m3.value(mu)) <= 1e-12

    def test_cover_violation_rejected(self):
        m2 = mnl_welfare(1.0, 2)
        with pytest.raises(ValueError):
            mix([MixtureComponent(m2, (0, 1), 1.0)], n=3)

    def test_weights_must_sum_to_one(self):
        m3 = mnl_welfare(1.0, 3)
        with pytest.raises(ValueError):
            mix([MixtureComponent(m3, (0, 1, 2), 0.9)], n=3)


class TestCross:
    def test_brand_matrix_reproduces_log_sum_model(self):
        crossed = cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS)
        direct = log_sum_welfare(BRAND_WEIGHTS)
        rng = np.random.default_rng(4)
        for _ in range(100):
            mu = rng.uniform(-5, 5, 3)
            assert abs(crossed.value(mu) - direct.value(mu)) <= 1e-10
            np.testing.assert_allclose(crossed.gradient(mu),
                                       direct.gradient(mu), atol=1e-10)

    def test_identity_matrix_is_identity(self):
        base = mnl_welfare(1.0, 3)
        crossed = cross(base, np.eye(3))
        mu = np.array([0.2, -1.0, 0.5])
        assert abs(crossed.value(mu) - base.value(mu)) <= 1e-12

    def test_gradient_mass_preserved(self):
        crossed = cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS)
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = np.asarray(crossed.gradient(rng.uniform(-6, 6, 3)))
            assert abs(float(np.sum(q)) - 1.0) <= 1e-12

    def test_crossed_mnl_can_fail_sign_test(self):
        # random-utility structure is not preserved by crossing: the brand
        # instance has a positive cross partial at (0, 0, 3)
        crossed = cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS)
        report = rum_sign_test(crossed, max_order=2,
                               points=[np.array([0.0, 0.0, 3.0])])
        assert not report.passed

    def test_crossed_model_passes_axioms(self):
        crossed = cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS)
        report = check_axioms(crossed, samples=500, seed=0)
        assert report.all_passed

    @pytest.mark.parametrize("level", [0.0, 1e8, 1e12, 1e15])
    def test_a_crossed_logit_reads_utility_differences(self, level):
        # the inner logit read A mu: 1.2e-2 apart at 1e15
        crossed = build_model({"kind": "gev_custom", "eta": 1.0,
                               "exponents": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                             [0.5, 0.0, 0.5]]}).model
        x = np.random.default_rng(0).uniform(-2.0, 2.0, (20, 3)) + level
        shifted = x - np.max(x, axis=-1, keepdims=True)
        np.testing.assert_allclose(batch_gradient(crossed, x),
                                   batch_gradient(crossed, shifted), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(batch_value(crossed, x),
                                      np.max(x, axis=-1) + batch_value(crossed, shifted))

    def test_a_zero_weight_on_a_difference_past_the_float_range(self, tmp_path, capsys):
        # (mu - top) @ A' met 0 * -inf: w and q were nan, and eval exited 3
        spec = {"kind": "transform_cross", "inner": {"kind": "mnl", "n": 4, "eta": 1.0},
                "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]]}
        crossed = build_model(spec).model
        mu = np.array([1e308, -1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert crossed.value(mu) == 1e308
            np.testing.assert_array_equal(crossed.gradient(mu), [1.0, 0.0, 0.0])
            path = tmp_path / "cross.json"
            path.write_text(json.dumps(spec))
            assert main(["eval", "--spec", str(path), "--mu=1e308,-1e308,0"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert [float(v) for v in row[3:]] == [1e308, 1.0, 0.0, 0.0]

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            cross(mnl_welfare(1.0, 2), np.array([[0.5, 0.6], [1.0, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            cross(mnl_welfare(1.0, 2), np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross(mnl_welfare(1.0, 3), BRAND_WEIGHTS)


class TestTransformGradients:
    @pytest.mark.parametrize("build", [
        lambda: scale(log_sum_welfare(BRAND_WEIGHTS), 0.6),
        lambda: mix([MixtureComponent(mnl_welfare(1.0, 2), (0, 2), 0.4),
                     MixtureComponent(mnl_welfare(0.5, 3), (2, 1, 0), 0.6)], 3),
        lambda: mix([MixtureComponent(mnl_welfare(1.0, 2), (0, 0), 0.5),
                     MixtureComponent(mnl_welfare(1.0, 2), (0, 1), 0.5)], 2),
        lambda: cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS),
    ], ids=["scale", "mix", "mix_repeated_index", "cross"])
    def test_gradient_matches_fd_of_value(self, build):
        model = build()
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.uniform(-3, 3, model.n)
            fd = finite_diff_gradient(model.value, mu)
            np.testing.assert_allclose(model.gradient(mu), fd, atol=1e-7)


class TestTransformAxioms:
    def test_all_transform_outputs_pass_axioms(self):
        m2 = mnl_welfare(1.0, 2)
        models = [scale(mnl_welfare(1.0, 3), 0.5),
                  mix([MixtureComponent(m2, (0, 1), 0.5),
                       MixtureComponent(m2, (1, 2), 0.5)], n=3),
                  cross(mnl_welfare(1.0, 4), BRAND_WEIGHTS)]
        for model in models:
            report = check_axioms(model, samples=1000, seed=1)
            assert report.all_passed, model.name
