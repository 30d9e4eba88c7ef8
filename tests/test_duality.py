"""Conversions among welfare, regularizer, and distribution-set forms."""

import math

import numpy as np
import pytest

from welfarechoice.duality import (anchor_family, conjugate_V,
                                   invert_choice, semiparametric_sup,
                                   simplex_grid, tabulated_welfare)
from welfarechoice.ram import (entropy_regularizer, log_barrier_regularizer,
                               quadratic_regularizer, ram_welfare)
from welfarechoice.transforms import MixtureComponent, mix
from welfarechoice.welfare import (estimate_superlinear_bounds, log_sum_welfare,
                                   mnl_welfare)

COUPLING = np.array([[3.0, 2.0, 0.0],
                     [2.0, 3.0, 2.0],
                     [0.0, 2.0, 3.0]])

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    return log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


class TestConjugate:
    def test_mnl_conjugate_is_negative_entropy(self):
        m = mnl_welfare(1.0, 2)
        assert abs(conjugate_V(m, np.array([0.5, 0.5])) + math.log(2)) <= 1e-5

    def test_mnl_conjugate_uniform_three(self):
        m = mnl_welfare(1.0, 3)
        assert abs(conjugate_V(m, np.ones(3) / 3) + math.log(3)) <= 1e-5

    def test_mnl_conjugate_matches_entropy_at_random_interior(self):
        m = mnl_welfare(1.0, 3)
        reg = entropy_regularizer(1.0, 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
            assert abs(conjugate_V(m, x) - reg.value(x)) <= 1e-5

    def test_quadratic_ram_round_trip(self):
        model = ram_welfare(quadratic_regularizer(np.eye(2)))
        x = np.array([0.75, 0.25])
        assert abs(conjugate_V(model, x) - 0.625) <= 1e-5

    def test_non_interior_point_rejected(self):
        m = mnl_welfare(1.0, 3)
        with pytest.raises(ValueError):
            conjugate_V(m, np.array([1.0, 0.0, 0.0]))

    def test_convex_along_segments(self):
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
            y = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
            mid = conjugate_V(m, 0.5 * (x + y))
            assert mid <= 0.5 * (conjugate_V(m, x) + conjugate_V(m, y)) + 1e-8


class TestInvertChoice:
    def test_mnl_closed_form_inversion(self):
        m = mnl_welfare(1.0, 3)
        mu = invert_choice(m, np.array([0.5, 0.25, 0.25]))
        assert abs(float(np.sum(mu))) <= 1e-9
        assert abs((mu[0] - mu[1]) - math.log(2)) <= 1e-6
        assert abs(mu[1] - mu[2]) <= 1e-6

    def test_fixed_point_at_gradient_of_zero(self):
        for model in (mnl_welfare(1.0, 3), brand_model()):
            target = np.asarray(model.gradient(np.zeros(model.n)))
            mu = invert_choice(model, target)
            assert np.max(np.abs(mu)) <= 1e-6

    def test_brand_model_inversion(self):
        model = brand_model()
        mu = invert_choice(model, np.array([0.3, 0.3, 0.4]))
        q = np.asarray(model.gradient(mu))
        assert np.max(np.abs(q - [0.3, 0.3, 0.4])) <= 1e-6

    @pytest.mark.parametrize("factory", [
        lambda: mnl_welfare(1.0, 3),
        lambda: ram_welfare(quadratic_regularizer(COUPLING)),
        lambda: brand_model(),
    ])
    def test_span_of_interior_targets(self, factory):
        model = factory()
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.dirichlet(np.ones(3)) * 0.97 + 0.01
            mu = invert_choice(model, x)
            q = np.asarray(model.gradient(mu))
            assert np.max(np.abs(q - x)) <= 1e-6


class TestAnchorFamily:
    def test_anchor_at_origin(self):
        m = mnl_welfare(1.0, 3)
        dist = anchor_family(m, [np.zeros(3)])[0]
        np.testing.assert_allclose(dist.weights, np.ones(3) / 3, atol=1e-12)
        assert abs(dist.offset - math.log(3)) <= 1e-12
        assert abs(dist.t_star - 1.0 / 3.0) <= 1e-12
        # penalty = max(1 + 0, log 3 / (1/3)) = 3 log 3
        assert abs(dist.penalty - 3 * math.log(3)) <= 1e-12

    def test_equality_at_own_anchor(self):
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.uniform(-4, 4, 3)
            dist = anchor_family(m, [z])[0]
            assert abs(dist.expected_max(z) - m.value(z)) <= 1e-9

    def test_dominated_by_welfare_everywhere(self):
        models = [mnl_welfare(1.0, 3),
                  ram_welfare(quadratic_regularizer(COUPLING)),
                  brand_model()]
        rng = np.random.default_rng(4)
        for model in models:
            anchors = [rng.uniform(-3, 3, 3) for _ in range(5)]
            family = anchor_family(model, anchors)
            for _ in range(100):
                mu = rng.uniform(-5, 5, 3)
                w = model.value(mu)
                for dist in family:
                    assert dist.expected_max(mu) <= w + 1e-9


    @pytest.mark.parametrize("model", [
        ram_welfare(log_barrier_regularizer(3)),
        log_sum_welfare([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        mix([MixtureComponent(mnl_welfare(1.0, 2), (0, 1), 0.5),
             MixtureComponent(mnl_welfare(1.0, 2), (1, 2), 0.5)], 3),
    ], ids=["log_barrier", "partial_rows", "partial_mix"])
    def test_models_without_analytic_bounds_are_refused(self, model):
        # no finite b_i exists for these, and the grid estimate is no bound
        assert model.superlinear_bounds is None
        estimate = estimate_superlinear_bounds(model)
        assert model.value(np.array([200.0, 0.0, 0.0])) - 200.0 < estimate[0] - 1.0
        with pytest.raises(ValueError, match="no analytic superlinear bounds"):
            anchor_family(model, [np.zeros(3)])
        with pytest.raises(ValueError, match="no analytic superlinear bounds"):
            semiparametric_sup(model, [np.zeros(3)], np.zeros(3))


class TestSemiparametricSup:
    def test_exact_at_anchor(self):
        m = mnl_welfare(1.0, 3)
        mu = np.array([0.4, -1.0, 0.2])
        assert abs(semiparametric_sup(m, [mu], mu) - m.value(mu)) <= 1e-9

    def test_grid_of_anchors_approximates_welfare(self):
        m = mnl_welfare(1.0, 3)
        axis = np.linspace(-2.0, 2.0, 9)
        anchors = [np.array([a, b, 0.0]) for a in axis for b in axis]
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.uniform(-1.5, 1.5, 2)
            mu = np.array([mu[0], mu[1], 0.0])
            sup = semiparametric_sup(m, anchors, mu)
            assert sup <= m.value(mu) + 1e-9
            assert m.value(mu) - sup <= 0.05

    def test_monotone_in_anchor_set(self):
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(6)
        mu = rng.uniform(-2, 2, 3)
        anchors = [rng.uniform(-2, 2, 3) for _ in range(6)]
        sups = [semiparametric_sup(m, anchors[:k], mu)
                for k in range(1, len(anchors) + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            semiparametric_sup(mnl_welfare(1.0, 3), [], np.zeros(3))


class TestTabulatedRoundTrip:
    def test_grid_nodes_are_interior_simplex_points(self):
        nodes = simplex_grid(3, 0.1)
        assert np.all(np.abs(nodes.sum(axis=1) - 1.0) <= 1e-12)
        assert np.min(nodes) >= 1e-6

    @pytest.mark.parametrize("n, spacing", [(3, 0.0), (3, -0.1), (3, 1.0),
                                            (3, float("nan")), (3, float("inf")),
                                            (3, 1e-3), (2, 1e-5)])
    def test_grid_refuses_bad_spacing_and_oversized_grids(self, n, spacing):
        with pytest.raises(ValueError):
            simplex_grid(n, spacing)

    def test_grid_size_cap_is_inclusive(self):
        # s = 99999 gives s + 1 = 10^5 nodes on the 1-simplex, two on its boundary
        assert len(simplex_grid(2, 1.0 / 99999)) == 99998

    def test_mnl_round_trip_through_tabulated_conjugate(self):
        # conjugate values on an interior grid, then a node-max solve;
        # spacing 0.005 on the unit utility box keeps the Bregman gap
        # (~ h^2 / q_min) below the 1e-4 target
        m = mnl_welfare(1.0, 3)
        w_tab, nodes, _ = tabulated_welfare(m, spacing=0.005)
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = rng.uniform(-1.0, 1.0, 3)
            gap = m.value(mu) - w_tab(mu)
            assert 0.0 <= gap + 1e-9
            assert gap <= 1e-4
