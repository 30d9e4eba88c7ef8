"""Property tests of the paper's identities over drawn model parameters.

Each test draws the model (scale eta, size n, nests, mixture subsets,
crossing matrix W) as well as the utility point, at the tolerances of the
acceptance criteria: q = grad w to 1e-5 relative (criterion 2) and entropy
RAM = logit to 1e-6 (criterion 1). The separable RAM families are also
drawn far from the origin, where their multiplier search must still meet
the solver's KKT tolerance; CMM must meet it through its Newton ascent;
and the conjugate of a welfare (V = w*) must give back V at interior
points to 1e-4 (criterion 9). Where a closed form carries its V, the
conjugate and inverse read from it agree with the ascent on the copy
without it.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from welfarechoice import core
from welfarechoice.duality import GRAD_TOL, conjugate_V, invert_choice
from welfarechoice.ram import (SOLVER_TOL, cmm_regularizer, entropy_regularizer,
                               log_barrier_regularizer, logistic_marginal,
                               mdm_regularizer, mmm_regularizer,
                               quadratic_regularizer, ram_welfare, solve_ram,
                               verify_kkt)
from welfarechoice.transforms import MixtureComponent, cross, mix, scale
from welfarechoice.welfare import (log_sum_welfare, logsumexp, mnl_welfare,
                                   nested_logit_welfare, softmax)

etas = st.floats(min_value=0.3, max_value=3.0)
sizes = st.integers(min_value=2, max_value=5)


def utilities(n, box=5.0):
    return st.lists(st.floats(min_value=-box, max_value=box),
                    min_size=n, max_size=n).map(np.array)


@st.composite
def stochastic_matrices(draw, n):
    """m x n nonnegative matrix with unit row sums; rows may be unit vectors."""
    m = draw(st.integers(min_value=2, max_value=5))
    W = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    for r in range(m):
        W[r, draw(st.integers(0, n - 1))] += 1.0
    return W / W.sum(axis=1, keepdims=True)


@st.composite
def nested_models(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    nests = [[i for i in range(n) if labels[i] == k] for k in sorted(set(labels))]
    lambdas = draw(st.lists(st.floats(min_value=0.2, max_value=1.0),
                            min_size=len(nests), max_size=len(nests)))
    return nested_logit_welfare(nests, lambdas, n)


@st.composite
def mixtures(draw, n):
    full = draw(st.permutations(range(n)))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    weight = draw(st.floats(min_value=0.0, max_value=1.0))
    return mix([MixtureComponent(mnl_welfare(draw(etas), n), tuple(full), weight),
                MixtureComponent(mnl_welfare(draw(etas), len(subset)),
                                 tuple(subset), 1.0 - weight)], n)


@st.composite
def closed_forms(draw):
    n = draw(sizes)
    kind = draw(st.sampled_from(["mnl", "nested_logit", "scale", "mix", "cross"]))
    if kind == "mnl":
        model = mnl_welfare(draw(etas), n)
    elif kind == "nested_logit":
        model = draw(nested_models(n))
    elif kind == "scale":
        model = scale(mnl_welfare(draw(etas), n), draw(etas))
    elif kind == "mix":
        model = draw(mixtures(n))
    else:
        W = draw(stochastic_matrices(n))
        model = cross(mnl_welfare(draw(etas), W.shape[0]), W)
    return model, draw(utilities(n))


@given(closed_forms())
@settings(max_examples=300, deadline=None)
def test_gradient_is_fd_of_value(case):
    model, mu = case
    q = np.asarray(model.gradient(mu), dtype=float)
    fd = core.finite_diff_gradient(model.value, mu)
    assert np.max(np.abs(q - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(q))))


@given(st.floats(min_value=0.5, max_value=2.0),
       st.integers(min_value=2, max_value=6).flatmap(utilities))
@settings(max_examples=200, deadline=None)
def test_entropy_ram_is_logit(eta, mu):
    result = solve_ram(entropy_regularizer(eta, mu.size), mu)
    assert result.converged
    assert np.max(np.abs(result.x_star - softmax(mu / eta))) <= 1e-6
    assert abs(result.w_value - eta * logsumexp(mu / eta)) <= 1e-6


@given(sizes.flatmap(lambda n: st.tuples(stochastic_matrices(n), utilities(n),
                                         st.lists(utilities(n), min_size=1,
                                                  max_size=4))))
@settings(max_examples=200, deadline=None)
def test_log_sum_is_crossed_unit_logit(case):
    W, mu, batch = case
    model = log_sum_welfare(W, name="drawn")
    crossed = cross(mnl_welfare(1.0, W.shape[0]), W)
    assert model.name == "drawn"
    assert model.value(np.stack(batch)).shape == (len(batch),)
    np.testing.assert_array_equal(model.superlinear_bounds, crossed.superlinear_bounds)
    for point in (mu, np.stack(batch)):
        np.testing.assert_array_equal(model.value(point), crossed.value(point))
        np.testing.assert_array_equal(model.gradient(point), crossed.gradient(point))


@st.composite
def separable_problems(draw):
    """(regularizer, mu, eta) with n in 2..5 and mu in [-50, 50]^n; eta only for entropy."""
    n = draw(st.integers(min_value=2, max_value=5))
    mu = draw(utilities(n, box=50.0))
    params = st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=n, max_size=n)
    family = draw(st.sampled_from(["entropy", "log_barrier", "mmm", "mdm_logistic"]))
    if family == "entropy":
        eta = draw(st.floats(min_value=0.5, max_value=2.0))
        return entropy_regularizer(eta, n), mu, eta
    if family == "log_barrier":
        return log_barrier_regularizer(n), mu, None
    if family == "mmm":
        return mmm_regularizer(draw(params)), mu, None
    return mdm_regularizer([logistic_marginal(s) for s in draw(params)]), mu, None


@given(separable_problems())
@settings(max_examples=300, deadline=None)
def test_separable_ram_meets_kkt_far_from_origin(problem):
    reg, mu, eta = problem
    result = solve_ram(reg, mu)
    assert result.converged
    assert verify_kkt(reg, mu, result.x_star) <= SOLVER_TOL
    if eta is not None:
        assert np.max(np.abs(result.x_star - softmax(mu / eta))) <= 1e-12


def positive_definite(n):
    """B B' / n + I / 2 from a drawn n x n matrix B with entries in [-1, 1]."""
    entries = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n * n, max_size=n * n)
    return entries.map(lambda b: np.reshape(b, (n, n)) @ np.reshape(b, (n, n)).T / n
                       + 0.5 * np.eye(n))


@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(positive_definite(n), utilities(n))))
@settings(max_examples=100, deadline=None)
def test_cmm_newton_ascent_meets_kkt(case):
    cov, mu = case
    reg = cmm_regularizer(cov)
    result = solve_ram(reg, mu)
    assert result.converged
    assert verify_kkt(reg, mu, result.x_star) <= SOLVER_TOL


def interior_points(n):
    """Points of the simplex with every coordinate at least 0.05."""
    weights = st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    return weights.map(lambda w: 0.05 + (1.0 - 0.05 * n) * np.asarray(w) / np.sum(w))


@st.composite
def conjugate_cases(draw):
    """(welfare model, interior x, V(x)) for quadratic and entropy RAM and for MNL."""
    n = draw(st.integers(min_value=2, max_value=4))
    x = draw(interior_points(n))
    family = draw(st.sampled_from(["quadratic", "entropy", "mnl"]))
    if family == "quadratic":
        reg = quadratic_regularizer(draw(positive_definite(n)))
        return ram_welfare(reg), x, reg.value(x)
    eta = draw(etas)
    if family == "entropy":
        reg = entropy_regularizer(eta, n)
        return ram_welfare(reg), x, reg.value(x)
    # mnl without the V it carries, so that V = w* is the ascent's, not a read
    return (replace(mnl_welfare(eta, n), regularizer=None), x,
            eta * float(np.sum(x * np.log(x))))


@given(conjugate_cases())
@settings(max_examples=100, deadline=None)
def test_conjugate_of_welfare_is_the_regularizer(case):
    model, x, expected = case
    assert abs(conjugate_V(model, x) - expected) <= 1e-4


@st.composite
def closed_forms_with_V(draw):
    """(mnl, nested logit or the scale of either, interior x)."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["mnl", "nested_logit", "scale_mnl", "scale_nested_logit"]))
    model = mnl_welfare(draw(etas), n) if kind.endswith("mnl") else draw(nested_models(n))
    if kind.startswith("scale"):
        model = scale(model, draw(etas))
    return model, draw(interior_points(n))


@given(closed_forms_with_V())
@settings(max_examples=100, deadline=None)
def test_V_read_agrees_with_the_ascent(case):
    model, x = case
    ascent_model = replace(model, regularizer=None)
    assert abs(conjugate_V(model, x) - conjugate_V(ascent_model, x)) <= 1e-10
    q_read = model.gradient(invert_choice(model, x))
    q_ascent = model.gradient(invert_choice(ascent_model, x))
    assert np.max(np.abs(q_read - x)) <= 1e-12
    assert np.max(np.abs(q_ascent - x)) <= GRAD_TOL
