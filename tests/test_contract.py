"""The evaluation contract: every welfare model and regularizer broadcasts over
(..., n), and a difference stencil is one call of the function it differences."""

import numpy as np
import pytest

from welfarechoice.core import MC_CHUNK, finite_diff_gradient, finite_diff_jacobian, mixed_partial
from welfarechoice.modelspec import build_model
from welfarechoice.ram import (Regularizer, cmm_regularizer, custom_marginal,
                               entropy_regularizer, exponential_marginal,
                               log_barrier_regularizer, logistic_marginal,
                               mdm_regularizer, mmm_regularizer, normal_marginal,
                               quadratic_regularizer, ram_welfare, solve_ram,
                               uniform_marginal)
from welfarechoice.rum import (binary_rum_from_welfare, gumbel_sampler,
                               mc_welfare_model)
from welfarechoice.substitution import scan_line
from welfarechoice.transforms import MixtureComponent, cross, mix, scale
from welfarechoice.welfare import (GEVGenerator, WelfareModel, batch_gradient, batch_value,
                                   check_superlinear, gev_welfare, log_sum_welfare,
                                   mnl_welfare, nested_logit_welfare, pointwise)

BRAND = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
COUPLING = [[3.0, 2.0, 0.0], [2.0, 3.0, 2.0], [0.0, 2.0, 3.0]]

MODELS = {
    "mnl": lambda: mnl_welfare(1.0, 3),
    "nested_logit": lambda: nested_logit_welfare([[0, 1], [2, 3]], [0.5, 0.8], 4),
    "gev_custom": lambda: build_model(
        {"kind": "gev_custom", "eta": 1.0, "exponents": BRAND}).model,
    "gev_without_partials": lambda: gev_welfare(
        GEVGenerator(eta=0.5, H=lambda y: np.sum(y ** 2, axis=-1)), 3),
    "scale": lambda: scale(mnl_welfare(1.0, 3), 2.0),
    "mix_repeated_index": lambda: mix(
        [MixtureComponent(mnl_welfare(1.0, 2), (0, 0), 0.5),
         MixtureComponent(mnl_welfare(1.0, 2), (0, 1), 0.3),
         MixtureComponent(mnl_welfare(1.0, 2), (1, 2), 0.2)], 3),
    "cross": lambda: cross(mnl_welfare(1.0, 4), BRAND),
    "log_sum": lambda: log_sum_welfare(BRAND),
    "ram_entropy": lambda: ram_welfare(entropy_regularizer(1.0, 3)),
    "ram_quadratic": lambda: ram_welfare(quadratic_regularizer(COUPLING)),
    "ram_logbarrier": lambda: ram_welfare(log_barrier_regularizer(3)),
    "ram_mdm": lambda: ram_welfare(mdm_regularizer([logistic_marginal(1.0)] * 3)),
    "ram_mmm": lambda: ram_welfare(mmm_regularizer([2.0, 2.5, 2.0])),
    "ram_cmm": lambda: ram_welfare(cmm_regularizer(np.eye(3) + 0.2)),
    "mc_panel": lambda: mc_welfare_model(gumbel_sampler(1.0, 3), 4000, seed=3),
    "mc_panel_3_partitions": lambda: mc_welfare_model(gumbel_sampler(1.0, 3),
                                                      2 * MC_CHUNK + 17, seed=3),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_batch_matches_per_point_calls_bit_for_bit(kind):
    model = MODELS[kind]()
    points = np.random.default_rng(4).uniform(-1.5, 1.5, (2, 3, model.n))
    values = model.value(points)
    grads = model.gradient(points)
    assert np.shape(values) == (2, 3)
    assert np.shape(grads) == (2, 3, model.n)
    for idx in np.ndindex(2, 3):
        assert values[idx] == model.value(points[idx])
        np.testing.assert_array_equal(grads[idx], model.gradient(points[idx]))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_an_empty_stack_gives_empty_results_without_a_call(kind):
    model = MODELS[kind]()
    calls = []

    def counted(f):
        return lambda mu: calls.append(mu) or f(mu)

    model = WelfareModel(n=model.n, value=counted(model.value),
                         gradient=counted(model.gradient))
    for shape in [(0, model.n), (2, 0, model.n)]:
        assert batch_value(model, np.empty(shape)).shape == shape[:-1]
        assert batch_gradient(model, np.empty(shape)).shape == shape
    assert calls == []


def test_pointwise_calls_once_per_row_and_directly_on_a_vector():
    seen = []

    def f(mu):
        seen.append(mu)
        return float(np.sum(mu))

    lifted = pointwise(f)
    mu = np.array([1.0, 2.0])
    assert lifted(mu) == 3.0 and seen[0] is mu
    np.testing.assert_array_equal(lifted(np.ones((2, 3, 2))), np.full((2, 3), 2.0))
    assert len(seen) == 7


# written for one point at a time and not lifted with pointwise
PER_POINT = WelfareModel(n=2, value=lambda mu: float(np.max(mu)),
                         gradient=lambda mu: np.array([1.0, 0.0]),
                         name="per_point")


# written for one point, indexing coordinates: on two points at n = 2,
# mu[0] and mu[1] are the points, and both results have the batch's length
def _indexing_value(mu):
    return np.log(np.exp(mu[0]) + np.exp(mu[1]))


INDEXING = WelfareModel(n=2, value=_indexing_value,
                        gradient=lambda mu: np.exp(np.array([mu[0], mu[1]]) - _indexing_value(mu)),
                        name="indexing")


# a regularizer whose value was written for one point
PER_POINT_V = Regularizer(n=2, value=lambda x: float(np.sum(x * x)),
                          gradient=lambda x: 2.0 * x, boundary_barrier=False,
                          name="per_point_v")


@pytest.mark.parametrize("call", [
    lambda: binary_rum_from_welfare(PER_POINT),
    lambda: scan_line(PER_POINT, np.zeros(2), i=0, j=1, lo=-1.0, hi=1.0, steps=5),
    lambda: check_superlinear(PER_POINT, np.zeros(2)),
    lambda: solve_ram(PER_POINT_V, np.array([0.5, -0.5])),
    lambda: ram_welfare(PER_POINT_V),
    # once a false FAIL with margin -8.10
    lambda: check_superlinear(INDEXING, np.zeros(2), samples=2),
    # once q_2 = 0.5 at both ends, where the model gives 0.731 and 0.269
    lambda: scan_line(INDEXING, [0, 0], 0, 1, -1, 1, steps=2),
], ids=["binary_rum_from_welfare", "scan_line", "check_superlinear", "solve_ram",
        "ram_welfare", "check_superlinear_on_n_points", "scan_line_on_n_points"])
def test_non_broadcasting_model_gets_the_contract_error(call):
    with pytest.raises(ValueError, match="pointwise"):
        call()


def test_gradient_rows_of_the_wrong_width_are_refused():
    # the checker compares the whole shape of a batch gradient, not only its
    # leading axis
    narrow = WelfareModel(n=3, value=MODELS["mnl"]().value,
                          gradient=lambda mu: np.zeros(np.shape(mu)[:-1] + (2,)))
    with pytest.raises(ValueError, match="pointwise"):
        scan_line(narrow, np.zeros(3), i=0, j=1, lo=-1.0, hi=1.0, steps=5)


# every Regularizer broadcasts over (..., n) as well
def _spd(n, seed):
    b = np.random.default_rng(seed).normal(size=(n, n))
    return b @ b.T / n + 0.5 * np.eye(n)


REGULARIZERS = {
    "entropy": lambda: entropy_regularizer(0.7, 3),
    "quadratic": lambda: quadratic_regularizer(COUPLING),
    "quadratic_n16": lambda: quadratic_regularizer(_spd(16, 16)),
    "log_barrier": lambda: log_barrier_regularizer(4),
    "mdm": lambda: mdm_regularizer([logistic_marginal(1.0), normal_marginal(0.7),
                                    exponential_marginal(2.0), uniform_marginal()]),
    "mdm_custom": lambda: mdm_regularizer(
        [custom_marginal(lambda t: np.log(t) - np.log1p(-t)), logistic_marginal(1.3),
         custom_marginal(lambda t: t)]),
    "mmm": lambda: mmm_regularizer([2.0, 2.5, 2.0]),
    "cmm": lambda: cmm_regularizer(np.eye(3) + 0.2),
}


@pytest.mark.parametrize("kind", sorted(REGULARIZERS))
def test_regularizer_batch_matches_per_point_calls_bit_for_bit(kind):
    reg = REGULARIZERS[kind]()
    points = np.random.default_rng(5).dirichlet(np.ones(reg.n), size=(2, 3))
    values = reg.value(points)
    grads = reg.gradient(points)
    assert np.shape(values) == (2, 3)
    assert np.shape(grads) == (2, 3, reg.n)
    for idx in np.ndindex(2, 3):
        assert values[idx] == reg.value(points[idx])
        np.testing.assert_array_equal(grads[idx], reg.gradient(points[idx]))


# each difference stencil is one call of the function differenced
def _counted(f):
    calls = []

    def counting(points):
        calls.append(np.shape(points))
        return f(points)

    return counting, calls


STENCILS = {
    "finite_diff_jacobian": lambda f: finite_diff_jacobian(f, np.array([0.3, -0.2, 0.5]), 1e-4),
    "finite_diff_gradient": lambda f: finite_diff_gradient(f, np.array([0.3, -0.2, 0.5])),
    "mixed_partial": lambda f: mixed_partial(f, np.array([0.3, -0.2, 0.5]), (0, 1, 2)),
}
STENCIL_POINTS = {"finite_diff_jacobian": 6, "finite_diff_gradient": 6, "mixed_partial": 8}


@pytest.mark.parametrize("name", sorted(STENCILS))
def test_a_stencil_is_one_call(name):
    model = mnl_welfare(1.0, 3)
    f, calls = _counted(model.gradient if name == "finite_diff_jacobian" else model.value)
    STENCILS[name](f)
    assert calls == [(STENCIL_POINTS[name], 3)]


@pytest.mark.parametrize("name", sorted(STENCILS))
def test_per_point_function_gets_the_contract_error(name):
    # written for one point: on a stencil, m[0] and m[1] are its first two points
    with pytest.raises(ValueError, match="pointwise"):
        STENCILS[name](lambda m: m[0] + 2 * m[1])


@pytest.mark.parametrize("call", [
    lambda f: mixed_partial(f, np.array([0.3, 0.7]), (0,)),
], ids=["mixed_partial"])
def test_per_point_function_on_a_stencil_of_n_points_gets_the_contract_error(call):
    # two points in two coordinates: m[0] * m[1] has the stencil's length
    with pytest.raises(ValueError, match="pointwise"):
        call(lambda m: m[0] * m[1])
