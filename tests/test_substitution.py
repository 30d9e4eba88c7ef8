"""Pairwise substitutability classification and structural criteria."""

import math
from dataclasses import replace

import numpy as np
import pytest

from welfarechoice.ram import (mmm_regularizer, quadratic_regularizer,
                               ram_welfare)
from welfarechoice.rum import gumbel_sampler, mc_welfare_model
from welfarechoice.substitution import (COMPLEMENTARY, MAX_RESAMPLES, SUBSTITUTABLE,
                                        check_modularity,
                                        classify_pair, corner_simplex_sampler,
                                        quadratic_criterion,
                                        reduced_regularizer, scan_line,
                                        substitutable_model_check,
                                        substitution_report)
from welfarechoice.welfare import _DRAW_BLOCK, WelfareModel, log_sum_welfare, \
    mnl_welfare, nested_logit_welfare

COUPLING = np.array([[3.0, 2.0, 0.0],
                     [2.0, 3.0, 2.0],
                     [0.0, 2.0, 3.0]])

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    return log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


def coupling_demo_model():
    """Quadratic RAM with half the coupling matrix; its probability paths
    over mu_1 in [-2, 2] show the complementary stretch on [-1.5, -1]."""
    return ram_welfare(quadratic_regularizer(0.5 * COUPLING))


class TestClassifyPair:
    def test_mnl_always_substitutable_off_diagonal(self):
        m = mnl_welfare(1.0, 3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            mu = rng.uniform(-4, 4, 3)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    c = classify_pair(m, mu, i, j)
                    assert c.label == SUBSTITUTABLE
                    # analytic cross effect is -q_i q_j
                    q = m.gradient(mu)
                    assert abs(c.estimate + q[i] * q[j]) <= 1e-3

    def test_coupling_demo_complementary_at_minus_1_25(self):
        model = coupling_demo_model()
        c = classify_pair(model, np.array([-1.25, 0.0, 0.0]), 0, 2)
        assert c.label == COMPLEMENTARY
        assert abs(c.estimate - 1.0 / 3.0) <= 1e-6

    def test_diagonal_is_complementary(self):
        for model in (mnl_welfare(1.0, 3), coupling_demo_model(), brand_model()):
            c = classify_pair(model, np.array([0.3, -0.2, 0.1]), 1, 1)
            assert c.label == COMPLEMENTARY

    def test_reciprocity_for_smooth_models(self):
        rng = np.random.default_rng(1)
        for model in (mnl_welfare(1.0, 3), brand_model()):
            for _ in range(20):
                mu = rng.uniform(-4, 4, 3)
                for i in range(3):
                    for j in range(i + 1, 3):
                        a = classify_pair(model, mu, i, j)
                        b = classify_pair(model, mu, j, i)
                        assert a.label == b.label
                        assert abs(a.estimate - b.estimate) <= 1e-6


class TestSubstitutionReport:
    def test_mnl_report_structure(self):
        report = substitution_report(mnl_welfare(1.0, 3), np.array([1.0, 0.0, -1.0]))
        assert report.symmetric
        for i in range(3):
            assert report.labels[i, i] == COMPLEMENTARY
            for j in range(3):
                if i != j:
                    assert report.labels[i, j] == SUBSTITUTABLE

    def test_matches_classify_pair_with_one_call_of_2n_points(self):
        base = ram_welfare(quadratic_regularizer(
            np.eye(4) + 0.3 * np.ones((4, 4))))
        calls = []

        def gradient(mu):
            calls.append(np.shape(mu))
            return base.gradient(mu)

        model = WelfareModel(n=4, value=base.value, gradient=gradient)
        mu = np.array([0.3, -0.2, 0.5, 0.0])
        report = substitution_report(model, mu)
        assert calls == [(8, 4)]
        for i in range(4):
            for j in range(4):
                c = classify_pair(model, mu, i, j)
                assert report.estimates[i, j] == c.estimate
                assert report.labels[i, j] == c.label


class TestScanLine:
    def test_coupling_demo_complementary_interval(self):
        model = coupling_demo_model()
        rows = scan_line(model, np.zeros(3), i=0, j=2, lo=-2.0, hi=2.0, steps=401)
        comp = [r.mu_i for r in rows if r.label == COMPLEMENTARY]
        assert comp, "no complementary stretch found"
        assert min(comp) <= -1.4 and max(comp) >= -1.1
        subst = [r.mu_i for r in rows if r.label == SUBSTITUTABLE and r.mu_i > 0]
        assert subst

    def test_brand_model_switch_point(self):
        # with mu2 = 0 and mu3 = 3 the cross effect flips sign where
        # e^3 = 4 e^{mu1/2} + e^{mu1} + 1, at mu1 ~ 2.0626
        model = brand_model()
        rows = scan_line(model, np.array([0.0, 0.0, 3.0]), i=0, j=1,
                         lo=-10.0, hi=5.0, steps=1501)
        comp = [r.mu_i for r in rows if r.label == COMPLEMENTARY]
        subst = [r.mu_i for r in rows if r.label == SUBSTITUTABLE]
        switch = max(comp)
        assert 2.05 <= switch <= 2.08
        assert min(subst) > switch - 0.02
        assert min(comp) <= -9.9

    def test_brand_q2_small_at_far_left(self):
        model = brand_model()
        q = np.asarray(model.gradient(np.array([-10.0, 0.0, 3.0])))
        assert 0.0 < q[1] < 0.1

    def test_mnl_scan_all_substitutable(self):
        rows = scan_line(mnl_welfare(1.0, 3), np.zeros(3), i=0, j=1,
                         lo=-3.0, hi=3.0, steps=101)
        for r in rows[1:-1]:
            assert r.label == SUBSTITUTABLE


@pytest.mark.parametrize("call", [
    lambda m: classify_pair(m, np.zeros(4), 0, 3),
    lambda m: substitution_report(m, np.zeros(4)),
    lambda m: scan_line(m, np.zeros(4), i=0, j=1, lo=-1.0, hi=1.0, steps=5),
], ids=["classify_pair", "substitution_report", "scan_line"])
def test_points_of_the_wrong_length_are_refused(call):
    with pytest.raises(ValueError, match="4 entries, not one for each of 3"):
        call(mnl_welfare(1.0, 3))


class TestQuadraticCriterion:
    def test_coupling_matrix_fails_expected_triple(self):
        report = quadratic_criterion(COUPLING)
        assert not report.passed
        failing = report.failing
        assert any(t.center == 1 and t.pair == (0, 2) for t in failing)
        worst = next(t for t in failing if t.center == 1 and t.pair == (0, 2))
        # A13 + A22 = 3 against A12 + A23 = 4
        assert abs(worst.margin + 1.0) <= 1e-12

    def test_identity_passes(self):
        assert quadratic_criterion(np.eye(3)).passed

    def test_positive_diagonal_passes(self):
        assert quadratic_criterion(np.diag([1.0, 2.0, 3.0])).passed

    def test_scale_invariance(self):
        assert not quadratic_criterion(0.5 * COUPLING).passed


class TestReducedRegularizer:
    def test_coupling_slice_matches_exact_polynomial(self):
        # eliminating the middle coordinate of x'Ax leaves
        # 2 z1^2 + 2 z2^2 - 2 z1 z2 - 2 z1 - 2 z2 + 3
        rr = reduced_regularizer(quadratic_regularizer(COUPLING), 1)
        quad = np.array([[2.0, -1.0], [-1.0, 2.0]])
        linear = np.array([-2.0, -2.0])
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.dirichlet(np.ones(3))[:2]
            expected = float(z @ quad @ z + linear @ z + 3.0)
            assert abs(rr.value(z) - expected) <= 1e-12

    def test_zero_reconstructs_vertex(self):
        reg = quadratic_regularizer(COUPLING)
        for i in range(3):
            rr = reduced_regularizer(reg, i)
            vertex = np.zeros(3)
            vertex[i] = 1.0
            assert abs(rr.value(np.zeros(2)) - reg.value(vertex)) <= 1e-12

    def test_off_domain_is_infinite(self):
        rr = reduced_regularizer(quadratic_regularizer(COUPLING), 1)
        assert rr.value(np.array([0.7, 0.7])) == np.inf
        assert rr.value(np.array([-0.1, 0.3])) == np.inf

    def test_broadcasts_and_never_evaluates_v_off_domain(self):
        reg = quadratic_regularizer(COUPLING)
        seen = []

        def value(x):
            seen.append(x)
            return reg.value(x)

        rr = reduced_regularizer(replace(reg, value=value), 1)
        z = np.random.default_rng(6).uniform(-0.2, 0.8, (40, 2))
        values = rr.value(z)
        assert values.shape == (40,) and len(seen) == 1
        assert np.all(seen[0] >= 0.0)
        outside = (np.min(z, axis=1) < 0.0) | (np.sum(z, axis=1) > 1.0)
        assert np.all(values[outside] == np.inf)
        for row, v in zip(z[~outside], values[~outside]):
            assert reduced_regularizer(reg, 1).value(row) == v


class TestCheckModularity:
    def test_product_is_supermodular(self):
        report = check_modularity(lambda z: z[..., 0] * z[..., 1],
                                  corner_simplex_sampler(3), samples=500, seed=0)
        assert report.verdict == "supermodular-consistent"

    def test_coupling_slice_is_neither(self):
        rr = reduced_regularizer(quadratic_regularizer(COUPLING), 1)
        report = check_modularity(rr.value, corner_simplex_sampler(3),
                                  samples=1000, seed=0)
        assert report.verdict == "neither"
        assert report.supermodular_witness is not None

    def test_mnl_welfare_is_submodular(self):
        m = mnl_welfare(1.0, 3)
        report = check_modularity(m.value,
                                  lambda rng, size: rng.uniform(-8.0, 8.0, (size, 3)),
                                  samples=1000, seed=0)
        assert report.verdict == "submodular-consistent"

    def test_linear_function_is_modular(self):
        report = check_modularity(lambda z: z[..., 0] + 2 * z[..., 1],
                                  corner_simplex_sampler(3), samples=300, seed=0)
        assert report.verdict == "modular-consistent"


def counting(f, shapes):
    def counted(z):
        shapes.append(np.shape(z))
        return f(z)
    return counted


def product_off_the_edge(z):
    """z1 * z2, +inf where z1 > 0.9."""
    return np.where(z[..., 0] > 0.9, np.inf, z[..., 0] * z[..., 1])


class TestCheckModularityBlocks:
    def test_one_call_for_the_pairs_and_one_for_joins_and_meets(self):
        shapes = []
        report = check_modularity(counting(lambda z: z[..., 0] * z[..., 1], shapes),
                                  corner_simplex_sampler(3), samples=200, seed=1)
        assert shapes == [(400, 2), (400, 2)]
        assert report.samples_used == 200

    def test_out_of_domain_pairs_are_redrawn(self):
        shapes = []
        report = check_modularity(counting(product_off_the_edge, shapes),
                                  lambda rng, size: rng.uniform(0.0, 1.0, (size, 2)),
                                  samples=300, seed=2)
        assert len(shapes) > 2
        assert report.samples_used == 300
        assert report.verdict == "supermodular-consistent"

    def test_pairs_never_in_the_domain_are_dropped(self):
        shapes = []
        report = check_modularity(counting(product_off_the_edge, shapes),
                                  lambda rng, size: rng.uniform(0.95, 1.0, (size, 2)),
                                  samples=30, seed=3)
        # every pair is drawn MAX_RESAMPLES times, and no join or meet is evaluated
        assert len(shapes) == MAX_RESAMPLES
        assert report.samples_used == 0
        assert report.verdict == "modular-consistent"
        assert report.supermodular_witness is None and report.submodular_witness is None

    def test_per_point_function_gets_the_contract_error(self):
        with pytest.raises(ValueError, match="pointwise"):
            check_modularity(lambda z: z[0] * z[1], corner_simplex_sampler(3),
                             samples=10, seed=0)

    def test_sampler_requests_stay_within_two_blocks(self):
        sizes = []
        sampler = corner_simplex_sampler(3)

        def counted(rng, size):
            sizes.append(size)
            return sampler(rng, size)

        samples = _DRAW_BLOCK + 5
        report = check_modularity(lambda z: z[..., 0] + z[..., 1], counted,
                                  samples=samples, seed=0)
        assert max(sizes) <= 2 * _DRAW_BLOCK
        assert sum(sizes) == 2 * samples
        assert report.samples_used == samples


class TestSubstitutableModelCheck:
    def test_mnl_consistent(self):
        report = substitutable_model_check(mnl_welfare(1.0, 3), samples=500, seed=0)
        assert report.verdict == "substitutable-consistent"

    def test_separable_ram_consistent(self):
        model = ram_welfare(mmm_regularizer([2.0, 2.0, 2.0]))
        report = substitutable_model_check(model, samples=200, box=2.0, seed=0)
        assert report.verdict == "substitutable-consistent"

    def test_brand_model_violation_found(self):
        report = substitutable_model_check(brand_model(), samples=600, seed=0)
        assert report.verdict == "violation"
        assert report.complementary_witness is not None
        mu = report.witness_mu
        # the witness must satisfy the analytic complementarity condition
        assert math.exp(mu[2]) >= 4 * math.exp(0.5 * (mu[0] + mu[1])) \
            + math.exp(mu[0]) + math.exp(mu[1]) - 1e-6

    def test_rum_derived_models_never_complementary(self):
        models = [mnl_welfare(1.0, 3),
                  nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3),
                  mc_welfare_model(gumbel_sampler(1.0, 3), samples=200000, seed=3)]
        rng = np.random.default_rng(4)
        for model in models:
            dead_zone = 1e-7 if model.name.startswith(("mnl", "nested")) else 2e-3
            for _ in range(30):
                mu = rng.uniform(-3, 3, 3)
                for i in range(3):
                    for j in range(3):
                        if i == j:
                            continue
                        c = classify_pair(model, mu, i, j, dead_zone=dead_zone)
                        assert c.label != COMPLEMENTARY, \
                            (model.name, mu, i, j, c.estimate)

    def test_agreement_with_quadratic_criterion(self):
        rng = np.random.default_rng(5)
        agreements = 0
        total = 0
        while total < 10:
            b = rng.normal(size=(3, 3))
            a_mat = b @ b.T + 0.5 * np.eye(3)
            crit = quadratic_criterion(a_mat)
            if min(abs(t.margin) for t in crit.triples) < 1e-3:
                continue
            total += 1
            model = ram_welfare(quadratic_regularizer(a_mat))
            box = 3.0 * float(np.max(np.abs(a_mat)))
            check = substitutable_model_check(model, samples=400, box=box,
                                              seed=total)
            if (check.verdict == "substitutable-consistent") == crit.passed:
                agreements += 1
        assert agreements == total
