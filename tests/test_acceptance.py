"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (including measured runtimes).
"""

import math
import os
import time
import zlib
from dataclasses import replace

import numpy as np

import welfarechoice as wc
from welfarechoice.cli import main as cli_main
from welfarechoice.rum import THREADS_ENV
from welfarechoice.substitution import (COMPLEMENTARY, quadratic_criterion,
                                        reduced_regularizer, scan_line,
                                        substitutable_model_check)
from welfarechoice.welfare import WelfareModel

COUPLING = np.array([[3.0, 2.0, 0.0],
                     [2.0, 3.0, 2.0],
                     [0.0, 2.0, 3.0]])

BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]])


def brand_model():
    return wc.log_sum_welfare(BRAND_WEIGHTS, name="brand_overlap")


def report(criterion: int, started: float, detail: str) -> None:
    print(f"[PASS] criterion {criterion} ({time.perf_counter() - started:.1f}s): {detail}")


def test_criterion_01_entropy_ram_matches_mnl():
    started = time.perf_counter()
    worst_q = 0.0
    worst_w = 0.0
    for eta in (0.5, 1.0, 2.0):
        for n in range(2, 7):
            reg = wc.entropy_regularizer(eta, n)
            model = wc.mnl_welfare(eta, n)
            rng = np.random.default_rng(1000 * n + int(10 * eta))
            for _ in range(100):
                mu = rng.uniform(-5.0, 5.0, n)
                result = wc.solve_ram(reg, mu)
                assert result.converged
                worst_q = max(worst_q,
                              float(np.max(np.abs(result.x_star - model.gradient(mu)))))
                worst_w = max(worst_w, abs(result.w_value - model.value(mu)))
    assert worst_q <= 1e-6
    assert worst_w <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, started, f"entropy RAM vs logit closed form: max |q| err "
                       f"{worst_q:.2e}, max |w| err {worst_w:.2e} over 1500 solves")


def gradient_identity_cases():
    coupled_cov = 9.0 * np.eye(3) + 0.9 * (np.ones((3, 3)) - np.eye(3))
    power_sum = wc.GEVGenerator(
        eta=1.0, H=lambda y: np.sum(y, axis=-1),
        partials=lambda y: np.ones_like(y))
    return [
        ("mnl", wc.mnl_welfare(1.0, 4), 5.0, 1e-5),
        ("nested_logit",
         wc.nested_logit_welfare([[0, 1], [2, 3]], [0.5, 0.8], 4), 5.0, 1e-5),
        ("gev_mnl", wc.gev_welfare(power_sum, 3), 5.0, 1e-5),
        ("brand", brand_model(), 5.0, 1e-5),
        ("ram_entropy", wc.ram_welfare(wc.entropy_regularizer(1.0, 3)), 2.0, 1e-5),
        ("ram_quadratic", wc.ram_welfare(wc.quadratic_regularizer(COUPLING)), 2.0, 1e-5),
        ("ram_logbarrier", wc.ram_welfare(wc.log_barrier_regularizer(3)), 2.0, 1e-5),
        ("ram_mdm",
         wc.ram_welfare(wc.mdm_regularizer([wc.logistic_marginal(1.0)] * 3)),
         2.0, 1e-5),
        ("ram_mmm", wc.ram_welfare(wc.mmm_regularizer([2.0, 2.5, 2.0])), 2.0, 1e-5),
        ("ram_cmm", wc.ram_welfare(wc.cmm_regularizer(coupled_cov)), 1.0, 1e-3),
    ]


def test_criterion_02_gradient_identity_every_model_kind():
    started = time.perf_counter()
    summary = []
    for name, model, box, tol in gradient_identity_cases():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(100):
            mu = rng.uniform(-box, box, model.n)
            q = np.asarray(model.gradient(mu), dtype=float)
            fd = wc.finite_diff_gradient(model.value, mu)
            err = float(np.max(np.abs(q - fd))) / max(1.0, float(np.max(np.abs(q))))
            worst = max(worst, err)
        assert worst <= tol, f"{name}: worst relative error {worst:.2e} > {tol:g}"
        summary.append(f"{name}={worst:.1e}")
    report(2, started, "q = grad w for every model kind; worst rel errs: "
                       + ", ".join(summary))


def shipped_models():
    m2 = wc.mnl_welfare(1.0, 2)
    return [
        wc.mnl_welfare(1.0, 3),
        wc.nested_logit_welfare([[0, 1], [2]], [0.5, 1.0], 3),
        wc.gev_welfare(wc.GEVGenerator(eta=1.0, H=lambda y: np.sum(y, axis=-1),
                                       partials=lambda y: np.ones_like(y)), 3),
        brand_model(),
        wc.ram_welfare(wc.entropy_regularizer(1.0, 3)),
        wc.ram_welfare(wc.quadratic_regularizer(COUPLING)),
        wc.ram_welfare(wc.log_barrier_regularizer(3)),
        wc.ram_welfare(wc.mdm_regularizer([wc.logistic_marginal(2.0)] * 3)),
        wc.ram_welfare(wc.mmm_regularizer([4.0, 4.0, 4.0])),
        wc.ram_welfare(wc.cmm_regularizer(
            9.0 * np.eye(3) + 0.9 * (np.ones((3, 3)) - np.eye(3)))),
        wc.transforms.scale(wc.mnl_welfare(1.0, 3), 2.0),
        wc.transforms.mix([wc.MixtureComponent(m2, (0, 1), 0.5),
                           wc.MixtureComponent(m2, (1, 2), 0.5)], n=3),
        wc.transforms.cross(wc.mnl_welfare(1.0, 4), BRAND_WEIGHTS),
    ]


def test_criterion_03_axiom_suite_with_negative_controls():
    started = time.perf_counter()
    for model in shipped_models():
        rep = wc.check_axioms(model, samples=1000, box=10.0, seed=0)
        assert rep.all_passed, model.name

    double_shift = WelfareModel(
        n=2, value=lambda mu: float(np.max(mu) + mu[0]),
        gradient=lambda mu: np.array([1.0, 0.0]), name="double_shift")
    rep = wc.check_axioms(double_shift, samples=1000, box=10.0, seed=0)
    assert not rep.translation_invariant.passed
    assert rep.translation_invariant.witness is not None

    base = wc.mnl_welfare(1.0, 3)
    negated = WelfareModel(
        n=3, value=lambda mu: -base.value(mu),
        gradient=lambda mu: -np.asarray(base.gradient(mu)), name="negated")
    rep = wc.check_axioms(negated, samples=1000, box=10.0, seed=0)
    assert not rep.convex.passed
    assert rep.convex.witness is not None
    report(3, started, "13 shipped models pass at 1000 samples; both negative "
                       "controls fail with witnesses")


def test_criterion_04_quadratic_demo_slopes_criterion_and_slice():
    started = time.perf_counter()
    demo = wc.ram_welfare(wc.quadratic_regularizer(0.5 * COUPLING))

    h = 0.01
    def q3_slope(t):
        hi = demo.gradient(np.array([t + h, 0.0, 0.0]))[2]
        lo = demo.gradient(np.array([t - h, 0.0, 0.0]))[2]
        return float((hi - lo) / (2 * h))

    slope_neg = q3_slope(-1.25)
    slope_pos = q3_slope(1.0)
    assert slope_neg > 1e-6
    assert slope_pos < -1e-6

    crit = quadratic_criterion(COUPLING)
    assert not crit.passed
    failing = next(t for t in crit.failing if t.center == 1 and t.pair == (0, 2))
    # A13 + A22 = 3 < 4 = A12 + A23
    assert COUPLING[0, 2] + COUPLING[1, 1] == 3.0
    assert COUPLING[0, 1] + COUPLING[1, 2] == 4.0
    assert abs(failing.margin + 1.0) <= 1e-12

    slice_v2 = reduced_regularizer(wc.quadratic_regularizer(COUPLING), 1)
    quad = np.array([[2.0, -1.0], [-1.0, 2.0]])
    linear = np.array([-2.0, -2.0])
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.dirichlet(np.ones(3))[:2]
        expected = float(z @ quad @ z + linear @ z + 3.0)
        assert abs(slice_v2(z) - expected) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, started, f"q3 slope {slope_neg:+.3f} at -1.25, {slope_pos:+.3f} "
                       f"at +1; failing triple margin -1; slice polynomial exact")


def analytic_brand_cross(mu):
    e1, e2, e3 = math.exp(mu[0]), math.exp(mu[1]), math.exp(mu[2])
    shared = math.exp(0.5 * (mu[0] + mu[1]))
    total = e1 + e2 + e3 + shared
    return shared * (e3 - e1 - e2 - 4.0 * shared) / (4.0 * total * total)


def test_criterion_05_brand_cross_partial_sign_and_switch_point():
    started = time.perf_counter()
    model = brand_model()
    rng = np.random.default_rng(7)
    checked = 0
    excluded = 0
    for _ in range(1000):
        mu = rng.uniform(-5.0, 5.0, 3)
        truth = analytic_brand_cross(mu)
        if abs(truth) < 1e-6:
            excluded += 1
            continue
        est = wc.mixed_partial(model.value, mu, (0, 1))
        assert np.sign(est) == np.sign(truth), (mu, truth, est)
        checked += 1

    rows = scan_line(model, np.array([0.0, 0.0, 3.0]), i=0, j=1,
                     lo=-10.0, hi=5.0, steps=1501)
    switch = max(r.mu_i for r in rows if r.label == COMPLEMENTARY)
    assert 2.05 <= switch <= 2.08
    report(5, started, f"cross-partial sign matches the analytic condition at "
                       f"{checked} points ({excluded} dead-zone exclusions); "
                       f"switch at mu1 = {switch:.2f}")


def test_criterion_06_binary_construction():
    started = time.perf_counter()
    m2 = wc.mnl_welfare(1.0, 2)
    construction = wc.binary_rum_from_welfare(m2)

    grid = np.linspace(-20.0, 20.0, 1000)
    logistic = 1.0 / (1.0 + np.exp(-grid))
    sup_dist = float(np.max(np.abs(construction.xi_cdf(grid) - logistic)))
    assert sup_dist <= 1e-10

    rng = np.random.default_rng(11)
    xi = construction.sample_xi(rng.random(10 ** 6))
    xs = np.sort(xi)
    empirical = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.abs(construction.xi_cdf(xs) - empirical)))
    assert ks <= 0.002

    eps = construction.noise_from_xi(xi)
    for _ in range(20):
        mu = rng.uniform(-3.0, 3.0, 2)
        vals = np.max(mu[None, :] + eps, axis=1)
        se = float(np.std(vals) / math.sqrt(vals.size))
        assert abs(float(np.mean(vals)) - m2.value(mu)) <= 4.0 * se

    halves = np.abs(eps).reshape(2, -1, 2).mean(axis=1)
    assert np.all(np.isfinite(halves))
    assert np.max(np.abs(halves[0] - halves[1])) <= 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, started, f"xi CDF sup-distance {sup_dist:.1e}, sample KS "
                       f"{ks:.1e}; expected max within 4 SE at 20 points "
                       f"(1e6 draws); E|eps| stable")


def test_criterion_07_sign_tests_pass_and_fail_where_required():
    started = time.perf_counter()
    passing = [
        ("mnl", wc.mnl_welfare(1.0, 3), 3.0),
        ("ram_entropy", wc.ram_welfare(wc.entropy_regularizer(1.0, 3)), 2.0),
        ("ram_mdm",
         wc.ram_welfare(wc.mdm_regularizer([wc.exponential_marginal(1.0)] * 3)),
         2.0),
        ("ram_mmm", wc.ram_welfare(wc.mmm_regularizer([3.0, 3.0, 3.0])), 2.0),
    ]
    for name, model, box in passing:
        rng = np.random.default_rng(len(name))
        points = [rng.uniform(-box, box, 3) for _ in range(50)]
        rep = wc.rum_sign_test(model, max_order=3, points=points)
        assert rep.passed, (name, [(v.order, v.worst_violation) for v in rep.verdicts])

    brand_rep = wc.rum_sign_test(brand_model(), max_order=2,
                                 points=[np.array([0.0, 0.0, 3.0])])
    assert not brand_rep.passed
    assert brand_rep.verdict(2).witness_indices == (0, 1)

    demo = wc.ram_welfare(wc.quadratic_regularizer(0.5 * COUPLING))
    demo_rep = wc.rum_sign_test(demo, max_order=2,
                                points=[np.array([-1.25, 0.0, 0.0])])
    assert not demo_rep.passed
    assert demo_rep.verdict(2).witness_point is not None
    report(7, started, "orders 2-3 pass for logit and separable RAM models at "
                       "50 points; brand and quadratic-demo models violate "
                       "order 2 with witnesses")


def test_criterion_08_lattice_check_agrees_with_matrix_criterion():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    total = 0
    while total < 100:
        b = rng.normal(size=(3, 3))
        a_mat = b @ b.T + 0.5 * np.eye(3)
        crit = quadratic_criterion(a_mat)
        if min(abs(t.margin) for t in crit.triples) < 1e-3:
            continue
        total += 1
        model = wc.ram_welfare(wc.quadratic_regularizer(a_mat))
        box = 3.0 * float(np.max(np.abs(a_mat)))
        check = substitutable_model_check(model, samples=400, box=box, seed=total)
        assert (check.verdict == "substitutable-consistent") == crit.passed, \
            (a_mat, crit.passed, check.verdict)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(8, started, "numerical substitutability verdict agrees with the "
                       "matrix criterion on 100/100 sampled instances")


def test_criterion_09_duality_round_trips():
    started = time.perf_counter()
    m3 = wc.mnl_welfare(1.0, 3)
    # mnl carries its V, the entropy; without it the conjugate is the ascent's,
    # a numerical check of V = w*
    ascent_m3 = replace(m3, regularizer=None)
    entropy = wc.entropy_regularizer(1.0, 3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
        assert abs(wc.conjugate_V(m3, x) - entropy.value(x)) <= 1e-4
        assert abs(wc.conjugate_V(ascent_m3, x) - entropy.value(x)) <= 1e-4

    targets = [rng.dirichlet(np.ones(3)) * 0.97 + 0.01 for _ in range(50)]
    models = [m3, wc.ram_welfare(wc.quadratic_regularizer(COUPLING)), brand_model()]
    for model in models:
        for x in targets:
            mu = wc.invert_choice(model, x)
            q = np.asarray(model.gradient(mu))
            assert np.max(np.abs(q - x)) <= 1e-6

    for model in models:
        anchors = [rng.uniform(-3.0, 3.0, 3) for _ in range(5)]
        family = wc.anchor_family(model, anchors)
        for z, dist in zip(anchors, family):
            assert abs(dist.expected_max(z) - model.value(z)) <= 1e-9
        for _ in range(200):
            mu = rng.uniform(-5.0, 5.0, 3)
            w_mu = model.value(mu)
            for dist in family:
                assert dist.expected_max(mu) <= w_mu + 1e-9
    report(9, started, "conjugate = negative entropy at 20 interior points, "
                       "read from V and by the ascent; "
                       "inversion residual <= 1e-6 at 50 targets x 3 models; "
                       "anchor family dominated everywhere, exact at anchors")


def test_criterion_10_transform_identities():
    started = time.perf_counter()
    crossed = wc.cross(wc.mnl_welfare(1.0, 4), BRAND_WEIGHTS)
    direct = brand_model()
    rng = np.random.default_rng(6)
    for _ in range(100):
        mu = rng.uniform(-5.0, 5.0, 3)
        assert abs(crossed.value(mu) - direct.value(mu)) <= 1e-10
        assert np.max(np.abs(np.asarray(crossed.gradient(mu))
                             - np.asarray(direct.gradient(mu)))) <= 1e-10

    for eta in (0.5, 2.0, 5.0):
        scaled = wc.scale(wc.mnl_welfare(1.0, 3), eta)
        target = wc.mnl_welfare(eta, 3)
        for _ in range(50):
            mu = rng.uniform(-5.0, 5.0, 3)
            assert abs(scaled.value(mu) - target.value(mu)) <= 1e-10

    m2 = wc.mnl_welfare(1.0, 2)
    mixed = wc.mix([wc.MixtureComponent(m2, (0, 1), 0.5),
                    wc.MixtureComponent(m2, (1, 2), 0.5)], n=3)
    np.testing.assert_allclose(mixed.gradient(np.zeros(3)),
                               [0.25, 0.5, 0.25], atol=1e-12)

    for model in (crossed, wc.scale(wc.mnl_welfare(1.0, 3), 2.0), mixed):
        rep = wc.check_axioms(model, samples=1000, box=10.0, seed=1)
        assert rep.all_passed, model.name
    report(10, started, "cross reproduces the brand model to 1e-10; scaling "
                        "matches retemperatured logit; mix gives (1/4, 1/2, "
                        "1/4); all transforms pass axioms")


def test_criterion_11_mc_determinism_across_thread_counts(tmp_path):
    started = time.perf_counter()
    outputs = []
    old = os.environ.get(THREADS_ENV)
    try:
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            os.environ[THREADS_ENV] = threads
            out = tmp_path / f"mc_{tag}.csv"
            code = cli_main(["rum", "--family", "gumbel", "--eta", "1.0",
                             "--mu", "1,0,0", "--mu", "0,0,0",
                             "--samples", "300000", "--seed", "42",
                             "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
    finally:
        if old is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = old
    assert outputs[0] == outputs[1] == outputs[2]
    report(11, started, "seeded CSV byte-identical across runs and thread counts")
