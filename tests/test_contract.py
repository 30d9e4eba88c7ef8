"""The evaluation contract: every welfare model broadcasts over (..., n)."""

import numpy as np
import pytest

from welfarechoice.modelspec import build_model
from welfarechoice.ram import (cmm_regularizer, entropy_regularizer,
                               log_barrier_regularizer, logistic_marginal,
                               mdm_regularizer, mmm_regularizer,
                               quadratic_regularizer, ram_welfare)
from welfarechoice.rum import (binary_rum_from_welfare, gumbel_sampler,
                               mc_welfare_model)
from welfarechoice.substitution import scan_line
from welfarechoice.transforms import MixtureComponent, cross, mix, scale
from welfarechoice.welfare import (GEVGenerator, WelfareModel, check_superlinear,
                                   estimate_superlinear_bounds, gev_welfare,
                                   log_sum_welfare, mnl_welfare,
                                   nested_logit_welfare, pointwise)

BRAND = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
COUPLING = [[3.0, 2.0, 0.0], [2.0, 3.0, 2.0], [0.0, 2.0, 3.0]]

MODELS = {
    "mnl": lambda: mnl_welfare(1.0, 3),
    "nested_logit": lambda: nested_logit_welfare([[0, 1], [2, 3]], [0.5, 0.8], 4),
    "gev_custom": lambda: build_model(
        {"kind": "gev_custom", "eta": 1.0, "exponents": BRAND}).model,
    "gev_without_partials": lambda: gev_welfare(
        GEVGenerator(eta=0.5, H=lambda y: float(np.sum(y ** 2))), 3),
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


@pytest.mark.parametrize("call", [
    lambda: binary_rum_from_welfare(PER_POINT),
    lambda: scan_line(PER_POINT, np.zeros(2), i=0, j=1, lo=-1.0, hi=1.0, steps=5),
    lambda: estimate_superlinear_bounds(PER_POINT),
    lambda: check_superlinear(PER_POINT, np.zeros(2)),
], ids=["binary_rum_from_welfare", "scan_line", "estimate_superlinear_bounds",
        "check_superlinear"])
def test_non_broadcasting_model_gets_the_contract_error(call):
    with pytest.raises(ValueError, match="pointwise"):
        call()
