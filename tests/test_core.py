"""Numeric foundation tests: Newton steps, differences, quadrature, roots."""

import itertools
import warnings

import numpy as np
import pytest

from welfarechoice import core
from welfarechoice.ram import (custom_marginal, log_barrier_regularizer, logistic_marginal,
                               mdm_regularizer)
from welfarechoice.transforms import MixtureComponent, cross, mix
from welfarechoice.welfare import mnl_welfare, nested_logit_welfare, pointwise


class TestNewtonStep:
    def test_bordered_appends_the_sum_constraint(self):
        np.testing.assert_array_equal(core.bordered(np.array([[2.0, 1.0], [1.0, 3.0]])),
                                      [[2.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 0.0]])

    def test_step_solves_the_bordered_system(self):
        # 2 d_1 + nu = 1, 4 d_2 + nu = -1, d_1 + d_2 = 0
        d = core.newton_step(np.diag([2.0, 4.0]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(d, [1.0 / 3.0, -1.0 / 3.0], atol=1e-15)

    def test_unusable_steps_give_nan(self):
        assert np.all(np.isnan(core.newton_step(np.zeros((3, 3)), np.array([1.0, 0.0, -1.0]))))
        assert np.all(np.isnan(core.newton_step(np.full((2, 2), np.nan), np.array([1.0, -1.0]))))
        # a concave model gives a descent direction
        assert np.all(np.isnan(core.newton_step(np.diag([-2.0, -4.0]), np.array([1.0, -1.0]))))

    def test_a_stack_is_solved_row_by_row(self):
        hess = np.array([np.diag([2.0, 4.0]), np.zeros((2, 2)), np.diag([-2.0, -4.0]),
                         [[3.0, 1.0], [1.0, 2.0]]])
        g = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0], [0.5, 0.2]])
        gap = np.array([0.0, 0.0, 0.0, 0.1])
        d = core.newton_step(hess, g, gap)
        assert d.shape == (4, 2)
        for k in range(4):
            np.testing.assert_array_equal(d[k], core.newton_step(hess[k], g[k], gap[k]))
        assert np.all(np.isfinite(d[[0, 3]])) and np.all(np.isnan(d[[1, 2]]))

    def test_a_coordinate_that_is_not_free_stays(self):
        # the step on coordinates 0 and 2 is the two-coordinate step; 1 keeps d = 0
        hess = np.array([[2.0, 7.0, 0.0], [7.0, 9.0, 7.0], [0.0, 7.0, 4.0]])
        d = core.newton_step(hess, np.array([1.0, 5.0, -1.0]), 0.0, np.array([True, False, True]))
        np.testing.assert_allclose(d, [1.0 / 3.0, 0.0, -1.0 / 3.0], atol=1e-15)
        assert d[1] == 0.0


class TestFiniteDiffGradient:
    def test_linear_function(self):
        g = core.finite_diff_gradient(lambda m: m[..., 0] + 2 * m[..., 1],
                                      np.array([0.3, -1.2]))
        np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-8)

    def test_mnl_at_origin(self):
        model = mnl_welfare(1.0, 3)
        g = core.finite_diff_gradient(model.value, np.zeros(3))
        np.testing.assert_allclose(g, np.ones(3) / 3, atol=1e-6)

    def test_quadratic(self):
        g = core.finite_diff_gradient(pointwise(lambda m: float(m @ m)),
                                      np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-6)

    def test_non_finite_value_raises(self):
        with pytest.raises(core.NumericError):
            core.finite_diff_gradient(pointwise(lambda m: np.inf), np.zeros(2))

    @pytest.mark.parametrize("f, mu, coordinate", [
        (pointwise(lambda m: np.inf), np.zeros(3), 0),
        (pointwise(lambda m: np.float64(-np.inf)), np.zeros(3), 0),
        (pointwise(lambda m: np.nan), np.zeros(3), 0),
        (pointwise(lambda m: np.inf if m[1] > 0 else 0.0), np.zeros(3), 1),
        # the second point's stencil: coordinate 2 of 3, not 5 of the flattened pair
        (lambda m: np.where(m[..., 2] > 0.5, np.nan, m.sum(-1)),
         np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]), 2),
        # the last of six points: coordinate 0, not 15
        (lambda m: np.where(m[..., 0] < -0.5, np.inf, m.sum(-1)),
         np.array([[[0.0, 0.0, 0.0]] * 3, [[0.0, 0.0, 0.0]] * 2 + [[-0.5, 0.0, 0.0]]]), 0),
    ], ids=["inf", "minus-inf", "nan", "inf-beyond-coordinate-1", "batch-nan-at-coordinate-2",
            "batch-2x3-inf-at-coordinate-0"])
    def test_non_finite_value_raises_without_a_warning(self, f, mu, coordinate):
        # a stencil that subtracted before checking would warn on inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(core.NumericError, match=f"coordinate {coordinate}$"):
                core.finite_diff_gradient(f, mu)

    def test_is_the_jacobian_of_a_scalar_function(self):
        f = mnl_welfare(1.0, 3).value
        mu = np.array([0.3, -1.2, 2.0])
        g = core.finite_diff_gradient(f, mu)
        assert g.shape == (3,)
        np.testing.assert_array_equal(g, core.finite_diff_jacobian(f, mu, 1e-6))


def logit_jacobian(mu, eta):
    """Analytic Jacobian of the logit choice map: (diag(q) - q q') / eta."""
    q = mnl_welfare(eta, mu.size).gradient(mu)
    return (np.diag(q) - np.outer(q, q)) / eta


class TestFiniteDiffJacobian:
    def test_logit_jacobian_scalar_step(self):
        mu = np.array([0.4, -1.1, 0.9, 0.0])
        jac = core.finite_diff_jacobian(mnl_welfare(0.7, 4).gradient, mu, 1e-6)
        np.testing.assert_allclose(jac, logit_jacobian(mu, 0.7), atol=1e-8)

    def test_logit_jacobian_per_column_steps(self):
        mu = np.array([0.4, -1.1, 0.9, 0.0])
        jac = core.finite_diff_jacobian(mnl_welfare(0.7, 4).gradient, mu,
                                        np.array([1e-6, 1e-5, 1e-7, 1e-6]))
        np.testing.assert_allclose(jac, logit_jacobian(mu, 0.7), atol=1e-7)



class TestMixedPartial:
    def test_bilinear(self):
        est = core.mixed_partial(lambda m: m[..., 0] * m[..., 1], np.zeros(2), (0, 1))
        assert abs(est - 1.0) <= 1e-6

    def test_mnl_second_order(self):
        # analytic cross partial of the logit welfare is -q_i q_j = -1/9 at 0
        model = mnl_welfare(1.0, 3)
        est = core.mixed_partial(model.value, np.zeros(3), (0, 1))
        assert abs(est - (-1.0 / 9.0)) <= 1e-4

    def test_mnl_third_order(self):
        # analytic third mixed partial is 2 q_i q_j q_k = 2/27 at 0
        model = mnl_welfare(1.0, 3)
        est = core.mixed_partial(model.value, np.zeros(3), (0, 1, 2))
        assert abs(est - 2.0 / 27.0) <= 1e-3

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError):
            core.mixed_partial(lambda m: m[0], np.zeros(2), (0, 0))

    @pytest.mark.parametrize("indices", [(), (0, 1, 2)], ids=["none", "more_than_n"])
    def test_an_index_count_outside_one_to_n_is_refused(self, indices):
        with pytest.raises(ValueError, match="need between 1 and n distinct indices"):
            core.mixed_partial(lambda m: m[..., 0], np.zeros(2), indices)

    def test_a_non_finite_value_names_its_corner(self):
        # the corners run (+, +), (+, -), (-, +), (-, -): the first with m_2 < 0
        with pytest.raises(core.NumericError, match=r"a difference stencil has value nan "
                           r"at mu=\[0.01, -0.01\]"):
            core.mixed_partial(lambda m: np.where(m[..., 1] < 0.0, np.nan, m[..., 0]),
                               np.zeros(2), (0, 1))

    def test_batch_is_one_call_and_equals_each_row(self):
        model = mnl_welfare(1.0, 3)
        mu = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 3))
        calls = []

        def value(m):
            calls.append(m.shape)
            return model.value(m)

        est = core.mixed_partial(value, mu, (0, 2))
        assert calls == [(20, 3)]
        assert est.shape == (5,)
        for row, e in zip(mu, est):
            assert core.mixed_partial(model.value, row, (0, 2)) == e


def smooth(x):
    """A broadcasting scalar function whose value reads the sign of a zero, with
    terms of unlike size, so that a stencil summed out of order rounds differently."""
    return (np.sin(x[..., 0]) * np.exp(3.0 * x[..., 1]) + 1e3 * x[..., 2] * x[..., 2] * x[..., 2]
            + np.arctan2(x[..., 2], -1.0))


def smooth_vector(x):
    return np.stack([np.sin(x[..., 0]) * x[..., 1], np.arctan2(x[..., 1], -1.0) + x[..., 2],
                     np.exp(x[..., 2] - x[..., 0])], axis=-1)


def explicit_jacobian(F, x, h):
    """(F(x + h_i e_i) - F(x - h_i e_i)) / (2 h_i), one point and one column at a time."""
    h = np.broadcast_to(h, x.shape)
    columns = np.empty(x.shape[:-1] + np.shape(F(x[(0,) * (x.ndim - 1)])) + x.shape[-1:])
    for lead in np.ndindex(x.shape[:-1]):
        for i in range(x.shape[-1]):
            e = np.zeros(x.shape[-1])
            e[i] = h[lead][i]
            columns[lead][..., i] = (F(x[lead] + e) - F(x[lead] - e)) / (2.0 * h[lead][i])
    return columns


STENCIL_POINTS = {
    "point": np.array([0.3, -1.2, 2.0]),
    "zeros": np.array([-0.0, 0.0, -0.0]),
    "batch": np.array([[0.4, -0.0, -0.0], [1.5, 0.2, -0.7], [-0.0, -0.0, 0.0],
                       [2.0, 1.0, -3.0], [0.1, 0.1, 0.1]]),
    "batch-2x3": np.random.default_rng(8).normal(size=(2, 3, 3)) * np.array([1.0, -0.0, 1.0]),
}


class TestStencilsAreTheExplicitFormulas:
    """Every stencil equals its formula evaluated point by point, bit for bit."""

    @pytest.mark.parametrize("where", sorted(STENCIL_POINTS))
    def test_gradient(self, where):
        mu = STENCIL_POINTS[where]
        expected = explicit_jacobian(smooth, mu, core.GRADIENT_STEP)
        assert core.finite_diff_gradient(smooth, mu).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", ["scalar", "per-column", "per-point"])
    @pytest.mark.parametrize("F", [smooth, smooth_vector], ids=["scalar-F", "vector-F"])
    @pytest.mark.parametrize("where", sorted(STENCIL_POINTS))
    def test_jacobian(self, where, F, step):
        x = STENCIL_POINTS[where]
        h = {"scalar": 1e-5, "per-column": np.array([1e-6, 3e-5, 2e-7]),
             "per-point": np.random.default_rng(9).uniform(1e-7, 1e-4, x.shape)}[step]
        got = core.finite_diff_jacobian(F, x, h)
        assert got.tobytes() == explicit_jacobian(F, x, h).tobytes()

    @pytest.mark.parametrize("indices", [(1,), (2, 0), (0, 1, 2)], ids=["k1", "k2", "k3"])
    @pytest.mark.parametrize("where", sorted(STENCIL_POINTS))
    def test_mixed_partial(self, where, indices):
        mu = STENCIL_POINTS[where]
        expected = np.empty(mu.shape[:-1])
        for lead in np.ndindex(mu.shape[:-1]):
            total = 0  # summed in stencil order, as the stencil is
            for signs in itertools.product((1.0, -1.0), repeat=len(indices)):
                corner = mu[lead].copy()
                corner[list(indices)] += np.array(signs) * core.MIXED_PARTIAL_STEP
                total = total + float(np.prod(signs)) * smooth(corner)
            expected[lead] = total / (2.0 * core.MIXED_PARTIAL_STEP) ** len(indices)
        got = core.mixed_partial(smooth, mu, indices)
        assert np.asarray(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("stencil", [
        lambda f, x: core.finite_diff_gradient(f, x),
        lambda f, x: core.finite_diff_jacobian(f, x, np.full(x.shape, 1e-6)),
        lambda f, x: core.mixed_partial(f, x, (0, 2)),
    ], ids=["gradient", "jacobian", "mixed_partial"])
    @pytest.mark.parametrize("where", ["point", "batch-2x3"])
    def test_one_contract_check_and_one_call_per_stencil(self, monkeypatch, where, stencil):
        checks, calls = [], []
        evaluate = core._evaluate

        def counted(*args):
            checks.append(args[1].shape)
            return evaluate(*args)

        def f(x):
            calls.append(x.shape)
            return smooth(x)

        monkeypatch.setattr(core, "_evaluate", counted)
        stencil(f, STENCIL_POINTS[where])
        assert len(checks) == 1 and len(calls) == 1


def _xlogx(t):
    return np.where(t > 0.0, t * np.log(np.maximum(t, 1e-300)), 0.0)


CLIP = 1e-12
# quantile and an antiderivative of it, each exact to rounding on [CLIP, 1 - CLIP]
QUANTILES = {
    "t": (lambda t: t, lambda t: 0.5 * t * t),
    "t_squared": (lambda t: t * t, lambda t: t ** 3 / 3.0),
    "sqrt": (np.sqrt, lambda t: 2.0 / 3.0 * t ** 1.5),
    "logistic": (lambda t: np.log(t) - np.log1p(-t), lambda t: _xlogx(t) + _xlogx(1.0 - t)),
    "exponential": (lambda t: -np.log1p(-t), lambda t: _xlogx(1.0 - t) + t),
    "normal": (core.normal_quantile, lambda t: -core.normal_pdf(core.normal_quantile(t))),
}


class TestCustomMarginalTail:
    """A custom marginal's tail is one fixed tanh-sinh rule over clipped limits."""

    @pytest.mark.parametrize("name", sorted(QUANTILES))
    def test_matches_the_exact_integral(self, name):
        quantile, antiderivative = QUANTILES[name]
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(0.0, 1.0, 400), np.logspace(-11.0, 0.0, 200)])
        lo = np.maximum(1.0 - x, CLIP)
        exact = antiderivative(1.0 - CLIP) - antiderivative(lo)
        got = custom_marginal(quantile).tail_integral(x)
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(QUANTILES))
    def test_edges_give_zero_or_the_mean_without_warnings(self, name):
        quantile, antiderivative = QUANTILES[name]
        mean = antiderivative(1.0 - CLIP) - antiderivative(CLIP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = custom_marginal(quantile).tail_integral(
                np.array([-0.5, 0.0, 1e-300, 1e-13, 1.0, 1.5]))
        np.testing.assert_array_equal(got[:4], 0.0)
        np.testing.assert_allclose(got[4:], mean, rtol=0.0, atol=1e-12)

    def test_non_finite_quantile_at_a_node_raises(self):
        # NaN only on (0.0040, 0.0041): no point of the 33-point grid check,
        # nor a node of the mean, lands there
        def quantile(t):
            return np.where((t > 0.0040) & (t < 0.0041), np.nan, np.log(t) - np.log1p(-t))

        reg = mdm_regularizer([custom_marginal(quantile), logistic_marginal(1.0)])
        assert np.isfinite(reg.value(np.array([0.5, 0.5])))
        with pytest.raises(core.NumericError, match="custom marginal"):
            reg.value(np.array([0.99595, 0.00405]))


class TestBisectIncreasing:
    def test_identity(self):
        assert abs(core.bisect_increasing(lambda x: x, 0.3, 0.0, 1.0) - 0.3) <= 1e-12

    def test_logistic_median(self):
        cdf = lambda x: 1.0 / (1.0 + np.exp(-x))
        root = core.bisect_increasing(cdf, 0.5, -50.0, 50.0)
        assert abs(root) <= 1e-10

    def test_cube_root(self):
        root = core.bisect_increasing(lambda x: x ** 3, 8.0, 0.0, 3.0)
        assert abs(root - 2.0) <= 1e-9

    def test_bracket_wider_than_1e296(self):
        # width / BISECT_TOL overflowed, and the step count raised OverflowError;
        # the root is as close to 0 as the bracket's ends resolve
        root = core.bisect_increasing(lambda x: x, 0.0, -1e300, 1e300)
        assert abs(root) <= np.spacing(1e300)

    def test_out_of_bracket(self):
        with pytest.raises(core.BracketError):
            core.bisect_increasing(lambda x: x, 2.0, 0.0, 1.0)

    def test_out_of_bracket_message_prints_plain_floats(self):
        # printed np.float64(5.0) and [np.float64(0.0), np.float64(1.0)]
        with pytest.raises(core.BracketError) as err:
            core.bisect_increasing(lambda x: x, np.array([0.5, 5.0]), 0.0, 1.0)
        assert str(err.value) == "target 5.0 outside [g(lo), g(hi)] = [0.0, 1.0]"


class TestRandomStreams:
    def test_stream_is_reproducible(self):
        a = core.stream_rng(42, 3).random(5)
        b = core.stream_rng(42, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_keys(self):
        a = core.stream_rng(42, 0).random(5)
        b = core.stream_rng(42, 1).random(5)
        assert not np.allclose(a, b)

    def test_partitions_cover_range(self):
        parts = list(core.mc_partitions(200000))
        assert parts[0][1] == 0
        assert parts[-1][2] == 200000
        for (i1, _, stop), (i2, start, _) in zip(parts, parts[1:]):
            assert stop == start and i2 == i1 + 1


class TestKeepLast:
    """One kept entry: equal arguments return the kept object without a call."""

    @staticmethod
    def counted(f):
        calls = []

        def compute(*args):
            calls.append(args)
            return f(*args)

        return core.keep_last(compute), calls

    def test_equal_arguments_return_the_kept_object(self):
        kept, calls = self.counted(lambda x, k: [x.sum() * k])
        first = kept(np.arange(6.0), 2)
        again = kept(np.arange(6.0), 2)  # another array, equal bytes
        assert again is first and len(calls) == 1

    @pytest.mark.parametrize("first, other", [
        ((np.arange(6.0), 2), (np.arange(6.0).reshape(2, 3), 2)),  # the same bytes
        ((np.zeros(3), 2), (np.zeros(3, dtype=np.int64), 2)),  # the same bytes
        ((np.arange(6.0), 2), (np.arange(6.0), 3)),
        ((np.zeros(3), 2), (-np.zeros(3), 2)),
    ], ids=["shape", "dtype", "non-array", "signed-zero"])
    def test_other_arguments_call_again(self, first, other):
        kept, calls = self.counted(lambda x, k: [x.sum() * k])
        kept_first = kept(*first)
        assert kept(*other) is not kept_first and len(calls) == 2

    def test_a_call_that_raises_keeps_the_previous_entry(self):
        def compute(x):
            if x[0] < 0:
                raise ValueError("refused")
            return [x.copy()]

        kept, calls = self.counted(compute)
        first = kept(np.ones(2))
        with pytest.raises(ValueError, match="refused"):
            kept(-np.ones(2))
        assert kept(np.ones(2)) is first and len(calls) == 2


def _scale_constructors():
    from welfarechoice import ram, rum, transforms, welfare
    return {
        "mnl_welfare": lambda v: welfare.mnl_welfare(v, 3),
        "gev_welfare": lambda v: welfare.gev_welfare(
            welfare.GEVGenerator(eta=v, H=lambda y: np.sum(y ** (1.0 / v), axis=-1)), 3),
        "transforms.scale": lambda v: transforms.scale(welfare.mnl_welfare(1.0, 3), v),
        "entropy_regularizer": lambda v: ram.entropy_regularizer(v, 3),
        "exponential_marginal": ram.exponential_marginal,
        "logistic_marginal": ram.logistic_marginal,
        "normal_marginal": ram.normal_marginal,
        "gumbel_sampler": lambda v: rum.gumbel_sampler(v, 3),
        "normal_sampler": lambda v: rum.normal_sampler(v, 3),
        "logistic_sampler": lambda v: rum.logistic_sampler(v, 3),
    }


class TestInputShapes:
    @pytest.mark.parametrize("x", [0.5, [1.0], np.ones((2, 1))], ids=["scalar", "one", "column"])
    def test_a_probability_vector_needs_two_entries(self, x):
        with pytest.raises(ValueError, match="must have n >= 2 entries"):
            core.as_probability(x)

    @pytest.mark.parametrize("matrix", [[1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                             ids=["vector", "rectangular"])
    def test_a_matrix_that_is_not_square_is_refused_by_name(self, matrix):
        with pytest.raises(ValueError, match="covariance must be square"):
            core.as_symmetric(matrix, "covariance")


class TestModelParameters:
    """Parameters are checked when a model is built: a NaN or infinite one once
    built a model that printed nan or inf, or drew noise that did."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(_scale_constructors()))
    def test_refused(self, name, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            _scale_constructors()[name](value)

    @pytest.mark.parametrize("name", sorted(_scale_constructors()))
    def test_a_positive_finite_scale_builds(self, name):
        _scale_constructors()[name](0.5)

    @pytest.mark.parametrize("lam", [float("nan"), 0.0, 1.5])
    def test_nest_parameters_lie_in_the_unit_interval(self, lam):
        from welfarechoice.welfare import nested_logit_welfare
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            nested_logit_welfare([[0, 1], [2]], [lam, 1.0], 3)

    @pytest.mark.parametrize("weight", [float("nan"), -0.5])
    def test_mixture_weights_are_nonnegative(self, weight):
        from welfarechoice.transforms import MixtureComponent, mix
        comps = [MixtureComponent(mnl_welfare(1.0, 2), (0, 1), weight),
                 MixtureComponent(mnl_welfare(1.0, 2), (0, 1), 1.0)]
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            mix(comps, 2)

    @pytest.mark.parametrize("build, match", [
        (lambda: mix([], 2), "at least one component"),
        (lambda: mix([MixtureComponent(mnl_welfare(1.0, 3), (0, 1), 1.0)], 2),
         "size must match its index set"),
        (lambda: mix([MixtureComponent(mnl_welfare(1.0, 2), (0, 2), 1.0)], 2),
         "index out of range"),
        (lambda: cross(mnl_welfare(1.0, 2), [1.0, 0.0]), "two-dimensional"),
        (lambda: nested_logit_welfare([[0, 1], [2]], [0.5], 3), "one lambda per nest"),
        (lambda: mix([MixtureComponent(mnl_welfare(1.0, 1), (0,), 1.0)], 1),
         "need at least two alternatives"),
        (lambda: mnl_welfare(1.0, 0), "need at least one alternative"),
        (lambda: log_barrier_regularizer(1), "need at least two alternatives"),
        (lambda: mdm_regularizer([logistic_marginal(1.0)]), "need at least two marginals"),
    ], ids=["no_components", "size_mismatch", "index_out_of_range", "flat_matrix",
            "lambda_count", "mix_of_one", "mnl_of_none", "log_barrier_of_one", "mdm_of_one"])
    def test_a_malformed_structure_is_refused(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("entry", [float("nan"), -0.5])
    def test_crossing_entries_are_nonnegative(self, entry):
        from welfarechoice.transforms import cross
        with pytest.raises(ValueError, match="entries must be nonnegative"):
            cross(mnl_welfare(1.0, 2), [[1.0, 0.0], [entry, 1.0 - entry]])
