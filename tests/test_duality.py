"""Conversions among welfare, regularizer, and distribution-set forms."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice import duality
from welfarechoice.core import (NumericError, finite_diff_gradient, finite_diff_jacobian,
                               newton_step)
from welfarechoice.duality import (ASCENT_MAX_ITER, GRAD_TOL, RESIDUAL_TOL, ConvergenceError,
                                   anchor_family, conjugate_V, invert_choice,
                                   semiparametric_sup, simplex_grid,
                                   tabulated_welfare)
from welfarechoice.modelspec import DEMO_QUADRATIC_COUPLING, build_model
from welfarechoice.ram import (entropy_regularizer, log_barrier_regularizer,
                               mmm_regularizer, quadratic_regularizer, ram_welfare)
from welfarechoice.rum import gumbel_sampler, mc_welfare_model
from welfarechoice.substitution import substitutable_model_check
from welfarechoice.transforms import MixtureComponent, mix, scale
from welfarechoice.welfare import (GEVGenerator, WelfareModel, gev_welfare, log_sum_welfare,
                                   mnl_welfare, nested_logit_welfare, pointwise)

COUPLING = np.array([[3.0, 2.0, 0.0],
                     [2.0, 3.0, 2.0],
                     [0.0, 2.0, 3.0]])

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    return log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


def partial_mix():
    """Logit over {1, 2} and over {2, 3}, half each: x_1 and x_3 stay below 1/2."""
    return mix([MixtureComponent(mnl_welfare(1.0, 2), (0, 1), 0.5),
                MixtureComponent(mnl_welfare(1.0, 2), (1, 2), 0.5)], 3)


RAM_SPECS = {
    "entropy": {"kind": "ram_entropy", "n": 3, "eta": 0.7},
    "quadratic": {"kind": "ram_quadratic", "matrix": COUPLING.tolist()},
    "logbarrier": {"kind": "ram_logbarrier", "n": 3},
    "mdm": {"kind": "ram_mdm", "marginals": [
        {"family": "logistic", "scale": 1.0}, {"family": "exponential", "rate": 1.0},
        {"family": "normal", "sd": 0.5}, {"family": "uniform"}]},
    "mmm": {"kind": "ram_mmm", "sigma": [2.0, 2.5, 2.0]},
    "cmm": {"kind": "ram_cmm", "covariance": (9.0 * np.eye(3) + 0.9).tolist()},
}


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


class TestInputValidation:
    """x is checked before any work: a simplex point of the model's length."""

    @pytest.mark.parametrize("fn", [conjugate_V, invert_choice])
    @pytest.mark.parametrize("model", [
        mnl_welfare(1.0, 3), build_model(RAM_SPECS["entropy"]).model],
        ids=["mnl", "ram_entropy"])
    @pytest.mark.parametrize("x, match", [
        ([0.5, 0.5, 0.5], "sum to"),
        ([[0.2, 0.3, 0.5], [0.5, 0.5, 0.5]], "sum to"),
        ([0.5, 0.5], "not one for each of 3 alternatives"),
        ([0.25, 0.25, 0.25, 0.25], "not one for each of 3 alternatives"),
        ([0.5, float("nan"), 0.5], "finite"),
        ([1.0, 0.0, 0.0], "strictly interior"),
    ], ids=["off_simplex", "row", "short", "long", "nan", "boundary"])
    def test_bad_x_is_a_value_error(self, fn, model, x, match):
        with pytest.raises(ValueError, match=match):
            fn(model, x)


def no_runtime_warning(call):
    """call(), asserting that it emits no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return call()
        finally:
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestAscentFailures:
    @pytest.mark.parametrize("model, x", [
        # q_1 <= 1/2 for the partial mix, so 0.6 is out of reach
        (partial_mix(), [0.6, 0.2, 0.2]),
        # no target near e_2 is reached by these pairwise rows, and on the
        # way the Newton systems turn singular
        (build_model({"kind": "gev_custom", "eta": 1.0, "exponents": [
            [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]}).model,
         np.array([0.02420171, 0.94290587, 0.03289243]) / 1.00000001),
    ], ids=["partial_mix", "partial_rows"])
    def test_unreachable_target_raises_with_the_best_iterate(self, model, x):
        with pytest.raises(ConvergenceError) as info:
            no_runtime_warning(lambda: invert_choice(model, x))
        err = info.value
        assert f"first at target={np.asarray(x).tolist()} (" in str(err)
        assert err.best.shape == (3,) and np.all(np.isfinite(err.best))
        assert err.residual > RESIDUAL_TOL
        assert abs(float(np.sum(err.best))) <= 1e-12 * (1.0 + np.max(np.abs(err.best)))

    def test_monte_carlo_panel_ends_on_the_step_budget(self):
        # a panel's choice frequencies step by 1/4000, so the target is never met
        model = mc_welfare_model(gumbel_sampler(1.0, 3), 4000, seed=3)
        x = np.array([0.41234567, 0.33333333, 0.254321])
        _, res, iters = no_runtime_warning(lambda: duality._ascend(model, x[None]))
        assert iters <= ASCENT_MAX_ITER
        assert res > RESIDUAL_TOL
        with pytest.raises(ConvergenceError):
            no_runtime_warning(lambda: invert_choice(model, x))

    def test_a_non_finite_starting_gradient_names_its_target(self):
        model = WelfareModel(n=3, value=lambda mu: np.max(mu, axis=-1),
                             gradient=lambda mu: np.full(np.shape(mu), np.nan))
        with pytest.raises(NumericError, match=r"the starting gradient has value nan "
                           r"at mu=\[0.2, 0.3, 0.5\]"):
            invert_choice(model, [0.2, 0.3, 0.5])


def per_point_ascend(model, x):
    """The one-target ascent that `duality._ascend` steps in stacks: the
    reference for its iterates, residuals and iteration counts. It also
    counts the centred-gradient (fallback) steps it accepts."""
    y = np.zeros(model.n)
    grad = x - np.asarray(model.gradient(y), dtype=float)
    res = float(np.max(np.abs(grad)))
    val = None  # y.x - w(y), evaluated when a step needs the Armijo test
    step = 1.0
    fallbacks = 0

    for it in range(ASCENT_MAX_ITER):
        if res <= GRAD_TOL:
            return y, res, it, fallbacks
        d = newton_step(finite_diff_jacobian(model.gradient, y, 1e-6), grad)
        newton = bool(np.max(np.abs(d)) <= 1e6)  # False for an unusable (NaN) step
        if newton:
            d, a = d - d.mean(), 1.0
        else:
            d, a = grad - grad.mean(), step
        for _ in range(70):
            y_new = y + a * d
            grad_new = x - np.asarray(model.gradient(y_new), dtype=float)
            res_new = float(np.max(np.abs(grad_new)))
            if res_new <= 0.5 * res:
                val_new = None
                break
            if val is None:
                val = float(y @ x - model.value(y))
            val_new = float(y_new @ x - model.value(y_new))
            if np.isfinite(val_new) and val_new >= val + 1e-4 * a * float(grad @ d):
                break
            a *= 0.5
        else:
            return y, res, it, fallbacks
        if not newton:
            step = min(a * 2.0, 1e6)
            fallbacks += 1
        y, grad, res, val = y_new, grad_new, res_new, val_new
    return y, res, ASCENT_MAX_ITER, fallbacks


def interior_targets(n, size, seed):
    """`size` simplex points, many near the boundary, none below 1e-4."""
    x = np.random.default_rng(seed).dirichlet(np.full(n, 0.5), size)
    return x * (1.0 - n * 1e-4) + 1e-4


PARTIAL_ROWS = {"kind": "gev_custom", "eta": 1.0,
                "exponents": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]}
# the FD-gradient GEV converges here through centred-gradient (fallback) steps
FALLBACK_TARGET = np.array([0.626576392, 1.74518780e-5, 0.373406156]) / 0.999999999878


def fd_gev():
    """A GEV model whose q is the central difference of w, one point at a
    time, so q need not sum to 1: the ascent reaches FALLBACK_TARGET
    through fallback steps."""
    model = gev_welfare(GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1)), 3)
    return replace(model, gradient=pointwise(lambda mu: finite_diff_gradient(model.value, mu)))


STACKS = {
    "mnl3": lambda: (mnl_welfare(1.0, 3), interior_targets(3, 60, 1)),
    "mnl6": lambda: (mnl_welfare(0.5, 6), interior_targets(6, 60, 2)),
    "brand": lambda: (brand_model(), interior_targets(3, 60, 3)),
    "nested": lambda: (nested_logit_welfare([[0, 1], [2, 3]], [0.5, 0.8], 4),
                       interior_targets(4, 60, 4)),
    "partial_mix": lambda: (partial_mix(), interior_targets(3, 40, 5)),
    "partial_rows": lambda: (build_model(PARTIAL_ROWS).model, interior_targets(3, 40, 6)),
    "fd_gev": lambda: (fd_gev(), np.vstack([FALLBACK_TARGET, interior_targets(3, 14, 7)])),
    "mc_panel": lambda: (mc_welfare_model(gumbel_sampler(1.0, 3), 4000, seed=3),
                         interior_targets(3, 3, 8)),
}


class TestStackedAscent:
    """A stack of targets steps together, each target exactly as alone."""

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_stack_equals_the_per_point_ascent_bit_for_bit(self, name):
        model, x = STACKS[name]()
        y, res, iters = duality._ascend(model, x)
        assert y.shape == x.shape and res.shape == iters.shape == x.shape[:1]
        for k in range(len(x)):
            want_y, want_res, want_iters, _ = per_point_ascend(model, x[k])
            assert y[k].tobytes() == want_y.tobytes(), k
            assert res[k].hex() == want_res.hex(), k
            assert iters[k] == want_iters, k

    def test_stacks_reach_both_ways(self):
        # the partial mix leaves some targets unreachable, the FD GEV reaches
        # one only through the gradient fallback: both paths are exercised
        _, x = STACKS["partial_mix"]()
        _, res, _ = duality._ascend(partial_mix(), x)
        assert 0 < np.count_nonzero(res > RESIDUAL_TOL) < len(x)
        _, want_res, _, fallbacks = per_point_ascend(fd_gev(), FALLBACK_TARGET)
        assert fallbacks > 0 and want_res <= GRAD_TOL

    def test_the_gev_reaches_the_fallback_target_by_newton_steps_alone(self):
        # its own q sums to 1 by construction, so no step falls back
        model = gev_welfare(GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1)), 3)
        _, res, _, fallbacks = per_point_ascend(model, FALLBACK_TARGET)
        assert fallbacks == 0 and res <= GRAD_TOL

    def test_convergence_error_flags_exactly_the_unreachable_rows(self):
        model = partial_mix()
        x = np.array([[0.3, 0.4, 0.3], [0.6, 0.2, 0.2], [0.25, 0.5, 0.25], [0.2, 0.2, 0.6]])
        with pytest.raises(ConvergenceError, match="2 of 4 targets") as info:
            no_runtime_warning(lambda: invert_choice(model, x))
        err = info.value
        assert err.best.shape == (4, 3) and err.residual.shape == (4,)
        np.testing.assert_array_equal(np.flatnonzero(err.residual > RESIDUAL_TOL), [1, 3])
        for k in (0, 2):
            assert err.best[k].tobytes() == invert_choice(model, x[k]).tobytes()

    @pytest.mark.parametrize("model", [mnl_welfare(1.0, 3), brand_model(),
                                       build_model(RAM_SPECS["entropy"]).model],
                             ids=["mnl", "brand", "ram_entropy"])
    def test_shapes_follow_the_input(self, model):
        x = interior_targets(3, 6, 9)
        assert isinstance(conjugate_V(model, x[0]), float)
        assert invert_choice(model, x[0]).shape == (3,)
        values = conjugate_V(model, x.reshape(2, 3, 3))
        mus = invert_choice(model, x.reshape(2, 3, 3))
        assert values.shape == (2, 3) and mus.shape == (2, 3, 3)
        for k, (i, j) in enumerate(np.ndindex(2, 3)):
            assert values[i, j] == conjugate_V(model, x[k])
            assert mus[i, j].tobytes() == invert_choice(model, x[k]).tobytes()
        assert conjugate_V(model, np.empty((0, 3))).shape == (0,)
        assert invert_choice(model, np.empty((0, 3))).shape == (0, 3)


class TestOneCallPerCaller:
    """Each caller hands its whole point set to one duality call."""

    def test_tabulated_welfare_is_one_ascent(self, monkeypatch):
        calls = []
        ascend = duality._ascend
        monkeypatch.setattr(duality, "_ascend",
                            lambda model, x: calls.append(len(x)) or ascend(model, x))
        # the logit without its V, so the conjugate is the ascent's
        _, nodes, _ = tabulated_welfare(replace(mnl_welfare(1.0, 3), regularizer=None), 0.05)
        assert calls == [len(nodes)]

    def test_span_probes_are_one_inversion(self, monkeypatch):
        calls = []
        invert = duality.invert_choice
        monkeypatch.setattr(duality, "invert_choice",
                            lambda model, x: calls.append(np.shape(x)) or invert(model, x))
        substitutable_model_check(brand_model(), samples=40, seed=0)
        assert calls == [(10, 3)]

    def test_anchor_family_is_one_value_and_one_gradient_call(self):
        m = mnl_welfare(1.0, 3)
        calls = []
        counted = WelfareModel(
            n=3, value=lambda mu: calls.append("value") or m.value(mu),
            gradient=lambda mu: calls.append("gradient") or m.gradient(mu),
            superlinear_bounds=np.zeros(3))
        anchors = np.random.default_rng(10).uniform(-2, 2, (5, 3))
        family = anchor_family(counted, anchors)
        assert sorted(calls) == ["gradient", "value"]
        calls.clear()
        sup = semiparametric_sup(counted, anchors, np.zeros(3))
        assert sorted(calls) == ["gradient", "value"]
        assert sup == max(dist.expected_max(np.zeros(3)) for dist in family)


class TestReadFromV:
    """A RAM model's conjugate is its V, and its inverse choice map grad V."""

    @pytest.mark.parametrize("family", list(RAM_SPECS))
    def test_choice_of_the_inverse_is_the_target(self, family):
        model = build_model(RAM_SPECS[family]).model
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.dirichlet(np.ones(model.n)) * 0.98 + 0.02 / model.n
            mu = invert_choice(model, x)
            assert abs(float(np.sum(mu))) <= 1e-9
            assert np.max(np.abs(model.gradient(mu) - x)) <= 1e-9
            assert conjugate_V(model, x) == float(model.regularizer.value(x))

    def test_log_barrier_conjugate_near_the_boundary(self):
        # once 82 s of ascent, then a ConvergenceError
        x = np.array([1e-5, 0.5, 0.5 - 1e-5])
        model = ram_welfare(log_barrier_regularizer(3))
        assert conjugate_V(model, x) == -float(np.sum(np.log(x)))

    @pytest.mark.parametrize("x", [[0.999797, 1e-4, 1.03e-4], [0.865353, 0.131537, 0.00311]])
    def test_ill_conditioned_quadratic_near_a_vertex(self, x):
        # once 10-18 s of ascent, then a ConvergenceError
        x = np.asarray(x) / np.sum(x)
        A = 0.01 * DEMO_QUADRATIC_COUPLING + 0.001 * np.eye(3)
        model = ram_welfare(quadratic_regularizer(A))
        mu = invert_choice(model, x)
        assert np.max(np.abs(model.gradient(mu) - x)) <= 1e-9

    def test_eight_alternatives(self):
        model = ram_welfare(log_barrier_regularizer(8))
        x = np.arange(1.0, 9.0) / 36.0
        assert conjugate_V(model, x) == -float(np.sum(np.log(x)))
        # 1 box point and 10 span probes, each with all 28 pairs tested
        report = substitutable_model_check(model, samples=40, seed=0)
        assert report.verdict == "substitutable-consistent"
        assert report.points_tested == 11 * 28

    @pytest.mark.parametrize("fn", [conjugate_V, invert_choice])
    def test_degenerate_regularizer_is_refused(self, fn):
        # a zero sigma is refused where V is built, before fn can read it
        with pytest.raises(ValueError, match="sigma must"):
            fn(ram_welfare(mmm_regularizer([0.0, 1.0, 1.0])), np.ones(3) / 3)


CLOSED_FORMS_WITH_V = {
    "mnl_0.25": lambda: mnl_welfare(0.25, 4),
    "mnl_1": lambda: mnl_welfare(1.0, 3),
    "mnl_4": lambda: mnl_welfare(4.0, 5),
    "nested_5": lambda: nested_logit_welfare([[0, 1], [2], [3, 4]], [0.1, 0.55, 1.0], 5),
    "nested_4": lambda: nested_logit_welfare([[0], [1, 2, 3]], [1.0, 0.3], 4),
    "scale_mnl": lambda: scale(mnl_welfare(4.0, 3), 0.5),
    "scale_nested": lambda: scale(nested_logit_welfare([[0, 1], [2], [3, 4]],
                                                       [0.1, 0.55, 1.0], 5), 2.5),
}


class TestClosedFormV:
    """mnl, nested logit and their scale carry V = w*: the conjugate and the
    inverse choice map read it, and agree with the ascent on the copy without it."""

    @staticmethod
    def case(name):
        model = CLOSED_FORMS_WITH_V[name]()
        x = np.random.default_rng(31).dirichlet(np.ones(model.n), 200)
        return model, replace(model, regularizer=None), x * 0.98 + 0.02 / model.n

    @pytest.mark.parametrize("name", list(CLOSED_FORMS_WITH_V))
    def test_conjugate_read_from_V_is_the_ascent(self, name, monkeypatch):
        model, ascent_model, x = self.case(name)
        calls = []
        ascend = duality._ascend
        monkeypatch.setattr(duality, "_ascend",
                            lambda m, t: calls.append(m.name) or ascend(m, t))
        read = conjugate_V(model, x)
        assert calls == []
        assert np.max(np.abs(read - conjugate_V(ascent_model, x))) <= 1e-12
        assert calls == [ascent_model.name]

    @pytest.mark.parametrize("name", list(CLOSED_FORMS_WITH_V))
    def test_inverse_read_from_V_has_the_smaller_residual(self, name):
        model, ascent_model, x = self.case(name)
        mu = invert_choice(model, x)
        residual = np.max(np.abs(model.gradient(mu) - x), axis=-1)
        ascent_residual = np.max(np.abs(model.gradient(invert_choice(ascent_model, x)) - x),
                                 axis=-1)
        assert np.max(np.abs(np.sum(mu, axis=-1))) <= 1e-12
        assert np.max(residual) <= 1e-12
        assert np.max(ascent_residual) <= GRAD_TOL
        assert np.all(residual <= np.fmax(ascent_residual, 1e-15))


class TestPastTheFloatRange:
    """A conjugate or inverse that a huge eta carries past the largest float is refused."""

    @pytest.mark.parametrize("model", [
        mnl_welfare(1e308, 8), ram_welfare(entropy_regularizer(1e308, 8)),
        replace(mnl_welfare(1e308, 8), regularizer=None)], ids=["mnl", "ram_entropy", "ascent"])
    def test_a_conjugate_past_the_float_range_is_refused(self, model):
        # eta log 8 > the largest float: an -inf V was returned
        with pytest.raises(NumericError, match="leaves the float range"):
            conjugate_V(model, np.full(8, 0.125))

    @pytest.mark.parametrize("model", [mnl_welfare(1e308, 3), scale(mnl_welfare(1.0, 3), 1e308),
                                       ram_welfare(entropy_regularizer(1e308, 3))],
                             ids=["mnl", "scale", "ram_entropy"])
    def test_an_inverse_past_the_float_range_is_refused(self, model):
        # eta (1 + log x) overflows: a NaN inverse, from -inf minus -inf, was returned
        with pytest.raises(NumericError, match="leaves the float range"):
            invert_choice(model, np.array([1e-6, 0.5, 0.5 - 1e-6]))

    @pytest.mark.parametrize("model, anchor", [
        (mnl_welfare(1.0, 3), [1e308, -1e308, 0.0]),
        (scale(mnl_welfare(1.0, 3), 1e308), [0.0, 0.0, 0.0]),
        # no positive weight, so no smallest one: t_star = inf
        (WelfareModel(n=3, value=lambda mu: np.max(mu, axis=-1),
                      gradient=lambda mu: np.zeros(np.shape(mu)),
                      superlinear_bounds=np.zeros(3)), [0.0, 0.0, 0.0]),
    ], ids=["spread", "scale", "no_positive_weight"])
    def test_an_anchor_past_the_float_range_is_refused(self, model, anchor):
        # the penalty overflowed to inf with a RuntimeWarning and was returned;
        # a q with no positive entry raised an AssertionError
        with pytest.raises(NumericError, match=r"anchor distribution of .* has value "
                           rf"inf at mu={re.escape(str(anchor))}"):
            no_runtime_warning(lambda: anchor_family(model, [anchor]))


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
        # no finite b_i exists for these
        assert model.superlinear_bounds is None
        with pytest.raises(ValueError, match="no analytic superlinear bounds"):
            anchor_family(model, [np.zeros(3)])
        with pytest.raises(ValueError, match="no analytic superlinear bounds"):
            semiparametric_sup(model, [np.zeros(3)], np.zeros(3))


    def test_expected_max_is_the_per_alternative_sum(self):
        # each atom i puts mu_i against its best rival, the largest other entry
        def per_alternative(dist, mu):
            total = 0.0
            for i in range(mu.size):
                if dist.weights[i] > 0.0:
                    best = max(mu[i], np.max(np.delete(mu, i)) - dist.penalty)
                    total += dist.weights[i] * (dist.offset + best)
            return total

        rng = np.random.default_rng(7)
        for model in (mnl_welfare(1.0, 3), mnl_welfare(0.5, 6), brand_model()):
            family = anchor_family(model, [rng.uniform(-2, 2, model.n) for _ in range(3)])
            points = np.round(rng.uniform(-3, 3, (40, model.n)))  # ties included
            points[::10] = 1.0
            for dist in family:
                for mu in points:
                    assert dist.expected_max(mu) == per_alternative(dist, mu)

    @pytest.mark.parametrize("mu", [np.zeros(2), np.zeros(4), [np.nan, 0.0, 0.0],
                                    [0.0, np.inf, 0.0]])
    def test_expected_max_refuses_a_bad_point(self, mu):
        # a 2-vector read 0.732 and a NaN entry read nan
        dist = anchor_family(mnl_welfare(1.0, 3), [np.zeros(3)])[0]
        with pytest.raises(ValueError, match="utility vector"):
            dist.expected_max(mu)


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

    @pytest.mark.parametrize("anchor, mu", [
        (np.zeros(2), np.zeros(2)), (np.zeros(4), np.zeros(3)),
        (np.zeros(3), np.zeros(2)), (np.zeros(3), np.zeros(4))],
        ids=["both_short", "long_anchor", "short_mu", "long_mu"])
    def test_wrong_length_anchor_or_point_rejected(self, anchor, mu):
        # a 2-vector once returned log 2, the answer of a 2-alternative model
        model = mnl_welfare(1.0, 3)
        with pytest.raises(ValueError, match="not one for each of 3 alternatives"):
            semiparametric_sup(model, [anchor], mu)
        if anchor.size != 3:
            with pytest.raises(ValueError, match="not one for each of 3 alternatives"):
                anchor_family(model, [anchor])


class TestTabulatedRoundTrip:
    def test_grid_nodes_are_interior_simplex_points(self):
        nodes = simplex_grid(3, 0.1)
        assert np.all(np.abs(nodes.sum(axis=1) - 1.0) <= 1e-12)
        assert np.min(nodes) >= 1e-6

    @pytest.mark.parametrize("n, spacing", [(3, 0.0), (3, -0.1), (3, 1.0),
                                            (3, float("nan")), (3, float("inf")),
                                            (3, 1e-3), (2, 1e-5), (4, 0.1)])
    def test_grid_refuses_bad_spacing_and_oversized_grids(self, n, spacing):
        with pytest.raises(ValueError):
            simplex_grid(n, spacing)

    def test_grid_size_cap_is_inclusive(self):
        # s = 99999 gives s + 1 = 10^5 nodes on the 1-simplex, two on its boundary
        assert len(simplex_grid(2, 1.0 / 99999)) == 99998

    @pytest.mark.parametrize("mu", [np.zeros(3), [np.nan, 0.0], [np.inf, 0.0]])
    def test_tabulated_welfare_refuses_a_bad_point(self, mu):
        w_tab, _, _ = tabulated_welfare(mnl_welfare(1.0, 2), 0.1)
        with pytest.raises(ValueError, match="utility vector"):
            w_tab(mu)

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
