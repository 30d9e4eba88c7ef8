"""The package surface that the benchmark harness (perfbench/workloads.py)
reads: the regularizer of a spec's bundle and of the quadratic demo, and the
analytic superlinear bounds of its closed forms. The harness's own tests live
in perfbench/tests, outside this suite, so these guard that surface here."""

from dataclasses import replace

import numpy as np
import pytest

from welfarechoice import modelspec
from welfarechoice.modelspec import build_model, demo_brand_model, demo_quadratic_model
from welfarechoice.ram import Regularizer
from welfarechoice.welfare import model_bounds

MNL3 = {"kind": "mnl", "n": 3, "eta": 1.0}
BRAND_W = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]

RAM_SPECS = {
    "ram_entropy": {"kind": "ram_entropy", "n": 3, "eta": 1.0},
    "ram_quadratic": {"kind": "ram_quadratic",
                      "matrix": [[3.0, 2.0, 0.0], [2.0, 3.0, 2.0], [0.0, 2.0, 3.0]]},
    "ram_logbarrier": {"kind": "ram_logbarrier", "n": 3},
    "ram_mdm": {"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": s}
                                                 for s in (1.0, 0.7, 1.5)]},
    "ram_mmm": {"kind": "ram_mmm", "sigma": [2.0, 2.5, 2.0]},
    "ram_cmm": {"kind": "ram_cmm", "covariance": (9.0 * np.eye(3) + 0.9).tolist()},
}

# the models whose `model_bounds` the closed-form workload checks
SUPERLINEAR = {
    "mnl": lambda: build_model(MNL3).model,
    "nested_logit": lambda: build_model({"kind": "nested_logit", "n": 4,
                                         "nests": [[1, 2], [3, 4]],
                                         "lambdas": [0.5, 0.8]}).model,
    "brand": lambda: demo_brand_model().model,
    "scale": lambda: build_model({"kind": "transform_scale", "eta": 2.0,
                                  "inner": MNL3}).model,
    "cross": lambda: build_model({"kind": "transform_cross", "matrix": BRAND_W,
                                  "inner": {"kind": "mnl", "n": 4, "eta": 1.0}}).model,
}


def test_every_ram_kind_is_covered():
    assert sorted(RAM_SPECS) == sorted(k for k in modelspec.KINDS if k.startswith("ram_"))


@pytest.mark.parametrize("kind", list(RAM_SPECS))
def test_ram_bundle_carries_its_regularizer(kind):
    bundle = build_model(RAM_SPECS[kind])
    assert isinstance(bundle.regularizer, Regularizer)
    assert bundle.regularizer is bundle.model.regularizer
    # the harness wraps a model's callables with dataclasses.replace
    assert replace(bundle.model, value=bundle.model.value).regularizer is bundle.regularizer


def test_demo_quadratic_regularizer():
    reg = demo_quadratic_model().regularizer
    np.testing.assert_array_equal(reg.quadratic_matrix,
                                  0.5 * modelspec.DEMO_QUADRATIC_COUPLING)


@pytest.mark.parametrize("label", list(SUPERLINEAR))
def test_superlinear_models_have_analytic_bounds(label):
    model = SUPERLINEAR[label]()
    assert model.regularizer is None
    bounds, estimated = model_bounds(model)
    assert estimated is False
    np.testing.assert_array_equal(bounds, model.superlinear_bounds)
