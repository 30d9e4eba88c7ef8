"""Command-line interface: CSV contracts, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from welfarechoice import cli, rum
from welfarechoice.cli import main
from welfarechoice.core import MC_CHUNK
from welfarechoice.modelspec import KINDS, ModelBundle, build_model
from welfarechoice.rum import THREADS_ENV
from welfarechoice.welfare import WelfareModel

MNL3 = {"kind": "mnl", "n": 3, "eta": 1.0}
BRAND_CROSS = {"kind": "transform_cross",
               "matrix": [[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.5, 0.5, 0.0]],
               "inner": {"kind": "mnl", "n": 4, "eta": 1.0}}
MMM3 = {"kind": "ram_mmm", "sigma": [2.0, 2.0, 2.0]}
ENTROPY3 = {"kind": "ram_entropy", "n": 3, "eta": 1.0}
# rum CSVs recorded when every --mu point drew its own noise, at 150,000
# samples (three partitions) and seed 4, from the first 1, 2 or 4 points
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_POINTS = ["0.5,0,-0.5", "1,0,0", "-0.25,0.75,0.25", "0,0,0"]
GOLDEN_FAMILIES = {"gumbel": ["--eta", "1.5"], "normal": ["--sd", "0.8"],
                   "logistic": ["--scale", "1.2"], "degenerate": []}
MNL2 = {"kind": "mnl", "n": 2, "eta": 1.0}
RAM_SPECS = [ENTROPY3,
             {"kind": "ram_quadratic", "matrix": [[3, 2, 0], [2, 3, 2], [0, 2, 3]]},
             {"kind": "ram_logbarrier", "n": 3},
             {"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": 1.0},
                                               {"family": "normal", "sd": 1.5},
                                               {"family": "exponential", "rate": 2.0}]},
             {"kind": "ram_mmm", "sigma": [2.0, 2.5, 2.0]},
             {"kind": "ram_cmm", "covariance": [[9, 0.9, 0.9], [0.9, 9, 0.9],
                                                [0.9, 0.9, 9]]}]


# convert CSVs recorded when conjugate_V and anchor_family took one point at a time
CONVERT_X = ["--x=0.2,0.3,0.5", "--x=0.6,0.3,0.1", "--x=0.05,0.05,0.9",
             "--x=0.01,0.98,0.01", "--x=0.45,0.1,0.45"]
CONVERT_ANCHORS = ["--anchor=0,0,0", "--anchor=1,-0.5,0.25", "--anchor=-2,1,0.5"]
CONVERT_GOLDENS = {
    "w_to_v_mnl_x": (MNL3, ["--direction", "w-to-v", *CONVERT_X]),
    "w_to_v_mnl_grid": (MNL3, ["--direction", "w-to-v", "--grid-step", "0.05"]),
    "w_to_v_brand": (BRAND_CROSS, ["--direction", "w-to-v", *CONVERT_X]),
    **{f"w_to_v_{spec['kind']}": (spec, ["--direction", "w-to-v", *CONVERT_X])
       for spec in RAM_SPECS},
    "w_to_theta_mnl": (MNL3, ["--direction", "w-to-theta", *CONVERT_ANCHORS]),
    "w_to_theta_brand": (BRAND_CROSS, ["--direction", "w-to-theta", *CONVERT_ANCHORS]),
}

# eval and figure CSVs recorded when `_csv` took its table as rows; the eval
# points print -0.0, subnormals and magnitudes near the float limit
EVAL_GOLDEN_POINTS = ["--mu=0,0,0", "--mu=-0.0,0.5,-0.0", "--mu=-1e300,0,0",
                      "--mu=1e300,1e300,-1e300", "--mu=-5e-324,1e-320,0",
                      "--mu=700,-700,0.5", "--mu=123456789.125,-0.5,3e-7"]


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def read_csv(path):
    header = None
    rows = []
    comments = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestEval:
    def test_mnl_row_values(self, spec_file, tmp_path):
        out = str(tmp_path / "eval.csv")
        code = main(["eval", "--spec", spec_file(MNL3), "--mu", "0,0,0",
                     "--out", out])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert comments[0].startswith("# welfarechoice ")
        assert header == ["mu_1", "mu_2", "mu_3", "w", "q_1", "q_2", "q_3"]
        assert rows[0][3] == "1.098612289"
        assert rows[0][4] == "0.3333333333"

    def test_quadratic_coupling_symmetry(self, spec_file, tmp_path):
        spec = spec_file({"kind": "ram_quadratic",
                          "matrix": [[3.0, 2.0, 0.0],
                                     [2.0, 3.0, 2.0],
                                     [0.0, 2.0, 3.0]]})
        out = str(tmp_path / "quad.csv")
        assert main(["eval", "--spec", spec, "--mu", "0,0,0", "--out", out]) == 0
        _, header, rows = read_csv(out)
        q = [float(v) for v in rows[0][4:]]
        assert abs(q[0] - q[2]) <= 1e-9

    def test_quadratic_at_a_huge_utility_picks_the_vertex(self, spec_file, tmp_path):
        spec = spec_file({"kind": "ram_quadratic",
                          "matrix": [[3.0, 2.0, 0.0],
                                     [2.0, 3.0, 2.0],
                                     [0.0, 2.0, 3.0]]})
        out = str(tmp_path / "quad.csv")
        assert main(["eval", "--spec", spec, "--mu", "0,1e17,0", "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert [float(v) for v in rows[0][4:]] == [0.0, 1.0, 0.0]

    def test_log_barrier_far_from_the_origin_exits_0_on_the_simplex(self, spec_file,
                                                                    tmp_path):
        spec = spec_file({"kind": "ram_logbarrier", "n": 3})
        out = str(tmp_path / "barrier.csv")
        assert main(["eval", "--spec", spec, "--mu", "1e8,-1e8,0", "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        q = np.array([float(v) for v in rows[0][4:]])
        assert np.all(q > 0.0) and abs(q.sum() - 1.0) <= 1e-8
        assert q[0] > 0.99

    def test_overflowing_utility_differences_exit_2(self, spec_file, capsys):
        # 1e308 - (-1e308) overflowed to a NaN x, printed with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec_file(RAM_SPECS[1]),
                         "--mu", "1e308,-1e308,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "utility differences overflow" in captured.err

    def test_nested_logit_at_a_huge_level_splits_the_nest(self, spec_file, tmp_path):
        # printed q = (1, 1, 0) with exit 0
        spec = spec_file({"kind": "nested_logit", "n": 3, "nests": [[1, 2], [3]],
                          "lambdas": [0.5, 1.0]})
        out = str(tmp_path / "nested.csv")
        assert main(["eval", "--spec", spec, "--mu", "1e307,1e307,0", "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert [float(v) for v in rows[0][4:]] == [0.5, 0.5, 0.0]

    def test_nested_logit_value_at_the_float_limit_is_finite(self, spec_file, capsys):
        # w printed nan with exit 0, after overflow warnings
        spec = spec_file({"kind": "nested_logit", "n": 3, "nests": [[1, 2], [3]],
                          "lambdas": [0.5, 1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec, "--mu", "1e308,0,0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1e+308,0,0,1e+308,1,0,0"

    @pytest.mark.parametrize("mu", ["1e308,0,0", "1e308,-1e308,0"])
    def test_logit_at_a_low_temperature_and_the_float_limit(self, spec_file, capsys, mu):
        # mu / eta overflowed before the shift: w and q printed nan
        spec = spec_file({"kind": "mnl", "n": 3, "eta": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec, "--mu", mu]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[3:] == ["1e+308", "1", "0", "0"]

    def test_entropy_ram_at_a_low_temperature_and_the_float_limit(self, spec_file, capsys):
        # the closed-form multiplier divided mu by eta before the shift: exit 3
        # on "overflow encountered in divide"
        spec = spec_file({"kind": "ram_entropy", "n": 3, "eta": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec, "--mu", "1e308,0,0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1e+308,0,0,1e+308,1,0,0"

    def test_scaled_logit_past_the_float_limit_exits_3(self, spec_file, capsys):
        spec = spec_file({"kind": "transform_scale", "eta": 0.5, "inner": MNL3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec, "--mu", "1e308,0,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "mu / eta overflows" in captured.err

    @pytest.mark.parametrize("w, q", [(np.nan, [0.5, 0.5]), (0.0, [np.inf, 0.0]),
                                      (0.0, [np.inf, -np.inf]), (0.0, [0.6, 0.6]),
                                      (0.0, [0.5, 0.5 + 2e-9])],
                             ids=["nan-w", "inf-q", "nan-sum", "off-sum", "just-off-sum"])
    def test_a_row_off_the_simplex_exits_3_and_writes_nothing(self, spec_file, tmp_path,
                                                              monkeypatch, capsys, w, q):
        bad = WelfareModel(n=2, name="bad",
                           value=lambda mu: np.where(mu[..., 0] > 0, w, 0.0),
                           gradient=lambda mu: np.where(mu[..., :1] > 0, q, 0.5))
        monkeypatch.setattr(cli, "load_model", lambda path: ModelBundle(bad, MNL2))
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--spec", spec_file(MNL2), "--mu", "0,0", "--mu", "1,0",
                         "--out", str(out)]) == 3
        assert not out.exists()
        assert "bad gave" in capsys.readouterr().err

    def test_near_singular_covariance_stops_within_a_second(self, spec_file, capsys):
        # the Newton ascent ran 339 iterations to KKT 34.7 before its step budget
        spec = spec_file({"kind": "ram_cmm",
                          "covariance": (0.00124 * np.eye(3) + 0.1).tolist()})
        start = time.perf_counter()
        code = main(["eval", "--spec", spec, "--mu", "507.96,-349.58,-140.94"])
        assert time.perf_counter() - start < 1.0
        assert code in (0, 3)
        if code == 3:
            assert "solver did not converge" in capsys.readouterr().err

    def test_malformed_spec_exits_2_and_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "mnl", "n": 3')
        out = tmp_path / "never.csv"
        code = main(["eval", "--spec", str(bad), "--mu", "0,0,0",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_three_points_make_three_solves(self, spec_file, tmp_path, monkeypatch):
        from welfarechoice import ram
        solved = []
        argmax = ram._argmax

        def counting(reg, mu):
            solved.append(mu.shape[0])
            return argmax(reg, mu)

        monkeypatch.setattr(ram, "_argmax", counting)
        out = str(tmp_path / "eval.csv")
        assert main(["eval", "--spec", spec_file(MMM3), "--mu", "0.5,0,-0.5",
                     "--mu", "1,2,0", "--mu", "0,0,0", "--out", out]) == 0
        # one solve for w and q, of 4 rows: 3 points at n = 3 carry the
        # contract check's copy of the first
        assert solved == [4]
        assert len(read_csv(out)[2]) == 3

    def test_dimension_mismatch_exits_2(self, spec_file):
        assert main(["eval", "--spec", spec_file(MNL3), "--mu", "0,0"]) == 2

    @pytest.mark.parametrize("mu", ["1e10,0,0", "1e150,0,0"])
    def test_cmm_below_its_lower_bound_exits_3_and_writes_nothing(self, spec_file, tmp_path,
                                                                   capsys, mu):
        cmm = {"kind": "ram_cmm", "covariance": [[2.0, 0.3, 0], [0.3, 1.0, 0], [0, 0, 1.5]]}
        out = tmp_path / "never.csv"
        assert main(["eval", "--spec", spec_file(cmm), "--mu", mu, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "below its bound max_i(mu_i + b_i)" in err
        assert f"at mu=[{float(mu.split(',')[0])!r}, 0.0, 0.0]" in err
        assert not out.exists()

    def test_csv_bytes_match_the_golden(self, spec_file, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--spec", spec_file(MNL3), *EVAL_GOLDEN_POINTS,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "eval_mnl.csv").read_bytes()

    @pytest.mark.parametrize("mu", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_mu_exits_2_and_writes_nothing(self, spec_file, tmp_path, mu):
        out = tmp_path / "never.csv"
        assert main(["eval", "--spec", spec_file(MNL3), "--mu", mu,
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestFigure:
    def test_demo_quadratic_slopes(self, tmp_path):
        out = str(tmp_path / "fig2.csv")
        assert main(["figure", "--example", "2", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == ["mu1", "q1", "q2", "q3"]
        grid = np.array([float(r[0]) for r in rows])
        q3 = np.array([float(r[3]) for r in rows])
        k_neg = int(np.argmin(np.abs(grid + 1.25)))
        k_pos = int(np.argmin(np.abs(grid - 1.0)))
        slope_neg = (q3[k_neg + 1] - q3[k_neg - 1]) / (grid[k_neg + 1] - grid[k_neg - 1])
        slope_pos = (q3[k_pos + 1] - q3[k_pos - 1]) / (grid[k_pos + 1] - grid[k_pos - 1])
        assert slope_neg > 1e-3
        assert slope_pos < -1e-3

    def test_demo_brand_switch_and_tail(self, tmp_path):
        out = str(tmp_path / "fig3.csv")
        assert main(["figure", "--example", "3", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == ["mu1", "q2", "classification"]
        comp = [float(r[0]) for r in rows if r[2] == "complementary"]
        assert 2.05 <= max(comp) <= 2.08
        first = rows[0]
        assert float(first[0]) == -10.0
        assert 0.0 < float(first[1]) < 0.1

    @pytest.mark.parametrize("example", [2, 3])
    def test_csv_bytes_match_the_goldens(self, tmp_path, example):
        out = tmp_path / "figure.csv"
        assert main(["figure", "--example", str(example), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"figure_{example}.csv").read_bytes()


class TestVerify:
    def test_mnl_sign_suite_passes(self, spec_file):
        assert main(["verify", "--spec", spec_file(MNL3),
                     "--suite", "rum-signs", "--samples", "20"]) == 0

    def test_brand_cross_sign_suite_fails(self, spec_file, capsys):
        code = main(["verify", "--spec", spec_file(BRAND_CROSS),
                     "--suite", "rum-signs", "--samples", "40", "--seed", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_brand_cross_substitutable_prints_its_complementary_pair(self, spec_file,
                                                                    capsys):
        code = main(["verify", "--spec", spec_file(BRAND_CROSS), "--suite", "substitutable",
                     "--samples", "600", "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().out == (
            "substitutability check for cross(mnl(eta=1)): violation\n"
            "  lattice sampling: neither (600 pairs)\n"
            "  complementary pair (1,2) at mu=[-9.2966 -6.273   4.4246] estimate=1.246e-06\n")

    def test_mmm_substitutable_passes(self, spec_file):
        assert main(["verify", "--spec", spec_file(MMM3),
                     "--suite", "substitutable", "--samples", "150"]) == 0

    def test_axioms_pass_for_entropy_ram(self, spec_file):
        assert main(["verify", "--spec", spec_file(ENTROPY3),
                     "--suite", "axioms", "--samples", "150"]) == 0

    def test_superlinear_pass_for_mnl(self, spec_file):
        assert main(["verify", "--spec", spec_file(MNL3),
                     "--suite", "superlinear", "--samples", "200"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_2(self, spec_file, samples):
        assert main(["verify", "--spec", spec_file(MNL3),
                     "--suite", "axioms", "--samples", samples]) == 2

    @pytest.mark.parametrize("command, refusal", [
        (["eval", "--mu", ",".join(["0"] * 8)], "gave w = inf, q = [0.125"),
        (["verify", "--suite", "superlinear"], "has value inf at mu=["),
        (["verify", "--suite", "axioms"], "has value inf at mu=["),
    ], ids=["eval", "superlinear", "axioms"])
    @pytest.mark.parametrize("spec", [
        {"kind": "mnl", "n": 8, "eta": 1e308},
        {"kind": "ram_entropy", "n": 8, "eta": 1e308},
        {"kind": "transform_scale", "eta": 1e308, "inner": {"kind": "mnl", "n": 8, "eta": 1.0}},
    ], ids=["mnl", "ram_entropy", "transform_scale"])
    def test_a_w_past_the_float_range_exits_3_without_a_warning(self, spec_file, capsys,
                                                                spec, command, refusal):
        # each printed numpy's overflow (and, for axioms, inf - inf) warning
        # first, and eval printed w = np.float64(inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--spec", spec_file(spec)]) == 3
        err = capsys.readouterr().err
        assert refusal in err and "Warning" not in err and "np.float64" not in err

    def test_bound_grid_above_the_cap_exits_2(self, spec_file):
        # each row pairs two alternatives, so H(e_i) = 0 and no analytic bound exists
        rows = [[0.5 if k in (i, (i + 1) % 8) else 0.0 for k in range(8)]
                for i in range(8)]
        spec = spec_file({"kind": "gev_custom", "eta": 1.0, "exponents": rows})
        assert main(["verify", "--spec", spec, "--suite", "superlinear",
                     "--samples", "10"]) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "ram_logbarrier", "n": 3},
        {"kind": "gev_custom", "eta": 1.0,
         "exponents": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]},
        {"kind": "transform_mix", "n": 3, "components": [
            {"weight": 0.5, "indices": [1, 2], "inner": {"kind": "mnl", "n": 2, "eta": 1.0}},
            {"weight": 0.5, "indices": [2, 3], "inner": {"kind": "mnl", "n": 2, "eta": 1.0}}]},
    ], ids=["ram_logbarrier", "gev_custom", "transform_mix"])
    def test_superlinear_without_analytic_bounds_exits_2(self, spec_file, capsys, spec):
        # estimated constants are no bound: w(200 e_1) - 200 = -12.6 for the
        # log-barrier, below its grid estimate of -9.43
        assert main(["verify", "--spec", spec_file(spec), "--suite", "superlinear",
                     "--samples", "50"]) == 2
        assert "no analytic superlinear bounds" in capsys.readouterr().err


class TestConvert:
    def test_w_to_v_negative_entropy(self, spec_file, tmp_path):
        spec = spec_file({"kind": "mnl", "n": 2, "eta": 1.0})
        out = str(tmp_path / "conv.csv")
        assert main(["convert", "--spec", spec, "--direction", "w-to-v",
                     "--x", "0.5,0.5", "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert abs(float(rows[0][2]) + math.log(2)) <= 1e-5

    def test_v_to_w_matches_mnl_eval(self, spec_file, tmp_path):
        out_v = str(tmp_path / "v2w.csv")
        out_m = str(tmp_path / "mnl.csv")
        assert main(["convert", "--spec", spec_file(ENTROPY3),
                     "--direction", "v-to-w", "--mu", "1,0,-1",
                     "--out", out_v]) == 0
        assert main(["eval", "--spec", spec_file(MNL3, "m.json"),
                     "--mu", "1,0,-1", "--out", out_m]) == 0
        _, _, rows_v = read_csv(out_v)
        _, _, rows_m = read_csv(out_m)
        for a, b in zip(rows_v[0][3:], rows_m[0][3:]):
            assert abs(float(a) - float(b)) <= 1e-6

    @pytest.mark.parametrize("spec", RAM_SPECS, ids=lambda s: s["kind"])
    def test_v_to_w_rows_equal_eval_rows(self, spec_file, tmp_path, spec):
        points = ["--mu=0.4,-0.3,0.1", "--mu=2,0,-1", "--mu=-3.5,1.25,0"]
        out_v = str(tmp_path / "v2w.csv")
        out_e = str(tmp_path / "eval.csv")
        path = spec_file(spec)
        assert main(["convert", "--spec", path, "--direction", "v-to-w",
                     *points, "--out", out_v]) == 0
        assert main(["eval", "--spec", path, *points, "--out", out_e]) == 0
        assert read_csv(out_v)[1:] == read_csv(out_e)[1:]

    @pytest.mark.parametrize("spec", [
        {"kind": "ram_logbarrier", "n": 3},
        {"kind": "gev_custom", "eta": 1.0,
         "exponents": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]},
        {"kind": "transform_mix", "n": 3, "components": [
            {"weight": 0.5, "indices": [1, 2], "inner": {"kind": "mnl", "n": 2, "eta": 1.0}},
            {"weight": 0.5, "indices": [2, 3], "inner": {"kind": "mnl", "n": 2, "eta": 1.0}}]},
    ], ids=["ram_logbarrier", "gev_custom", "transform_mix"])
    def test_w_to_theta_without_analytic_bounds_exits_2(self, spec_file, tmp_path,
                                                        capsys, spec):
        out = tmp_path / "never.csv"
        assert main(["convert", "--spec", spec_file(spec), "--direction", "w-to-theta",
                     "--anchor", "0,0,0", "--out", str(out)]) == 2
        assert "no analytic superlinear bounds" in capsys.readouterr().err
        assert not out.exists()

    def test_w_to_theta_anchor_equality(self, spec_file, tmp_path):
        out = str(tmp_path / "theta.csv")
        assert main(["convert", "--spec", spec_file(MNL3),
                     "--direction", "w-to-theta", "--anchor", "0,0,0",
                     "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header[-3:] == ["offset", "penalty", "t_star"]
        offset = float(rows[0][6])
        weights = [float(v) for v in rows[0][3:6]]
        # expected maximum at the anchor itself equals the welfare there
        assert abs(sum(w * (0.0 + offset) for w in weights)
                   - math.log(3)) <= 1e-9

    def test_v_to_w_requires_regularizer_spec(self, spec_file, capsys):
        # a gev_custom spec is a crossed logit, which carries no V
        spec = {"kind": "gev_custom", "eta": 1.0,
                "exponents": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]}
        assert main(["convert", "--spec", spec_file(spec),
                     "--direction", "v-to-w", "--mu", "0,0,0"]) == 2
        assert ("v-to-w requires a spec whose model carries its V (ram_*, mnl, "
                "nested_logit or their transform_scale)") in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mnl", "ram_entropy"])
    def test_w_to_v_past_the_float_range_exits_3(self, spec_file, capsys, kind):
        # eta log 8 > the largest float: V = -inf was printed with exit 0
        assert main(["convert", "--spec", spec_file({"kind": kind, "n": 8, "eta": 1e308}),
                     "--direction", "w-to-v", "--x", ",".join(["0.125"] * 8)]) == 3
        assert "leaves the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        MNL3,
        {"kind": "nested_logit", "n": 3, "nests": [[1, 2], [3]], "lambdas": [0.5, 1.0]},
        {"kind": "transform_scale", "eta": 2.0, "inner": MNL3},
    ], ids=["mnl", "nested_logit", "transform_scale"])
    def test_v_to_w_accepts_a_closed_form_that_carries_its_V(self, spec_file, tmp_path,
                                                             spec):
        points = ["--mu=0.4,-0.3,0.1", "--mu=2,0,-1"]
        out_v, out_e = str(tmp_path / "v2w.csv"), str(tmp_path / "eval.csv")
        path = spec_file(spec)
        assert main(["convert", "--spec", path, "--direction", "v-to-w",
                     *points, "--out", out_v]) == 0
        assert main(["eval", "--spec", path, *points, "--out", out_e]) == 0
        assert read_csv(out_v)[1:] == read_csv(out_e)[1:]

    @pytest.mark.parametrize("x", ["nan,0.5,0.5", "0.3,0.3,0.3", "-0.1,0.6,0.5"])
    def test_w_to_v_rejects_points_off_the_simplex(self, spec_file, x):
        assert main(["convert", "--spec", spec_file(MNL3),
                     "--direction", "w-to-v", "--x", x]) == 2

    def test_w_to_v_names_a_negative_entry(self, spec_file, capsys):
        # "--x" "-0.1,..." reads as an option; "--x=-0.1,..." reaches the check
        assert main(["convert", "--spec", spec_file(MNL3), "--direction", "w-to-v",
                     "--x=-0.1,0.6,0.5"]) == 2
        assert "entry -1.000e-01 below" in capsys.readouterr().err

    def test_w_to_v_refuses_a_grid_with_no_interior_node(self, spec_file, capsys):
        assert main(["convert", "--spec", spec_file(MNL3), "--direction", "w-to-v",
                     "--grid-step", "0.6"]) == 2
        assert ("input error: --grid-step: no grid node lies inside the simplex"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("step", ["1e-9", "0", "-1", "nan", "2", "inf"])
    def test_w_to_v_rejects_bad_grid_steps(self, spec_file, capsys, step):
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["convert", "--spec", spec_file(MNL3),
                         "--direction", "w-to-v", "--grid-step", step]) == 2
        assert time.perf_counter() - started < 1.0
        assert "input error: --grid-step:" in capsys.readouterr().err

    def test_w_to_v_grids_stop_at_three_alternatives(self, spec_file, capsys):
        spec = spec_file({"kind": "mnl", "n": 4, "eta": 1.0})
        assert main(["convert", "--spec", spec, "--direction", "w-to-v",
                     "--grid-step", "0.25"]) == 2
        assert "input error: --grid-step: grids are supported for n in {2, 3}" \
            in capsys.readouterr().err

    def test_w_to_v_on_a_grid(self, spec_file, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert main(["convert", "--spec", spec_file(MNL3),
                     "--direction", "w-to-v", "--grid-step", "0.25",
                     "--out", out]) == 0
        _, _, rows = read_csv(out)
        # (s + 1)(s + 2) / 2 = 15 nodes at s = 4, of which 3 are interior
        assert len(rows) == 3
        for row in rows:
            x = np.array([float(v) for v in row[:3]])
            assert abs(float(row[3]) - float(np.sum(x * np.log(x)))) <= 1e-5


    @pytest.mark.parametrize("name", sorted(CONVERT_GOLDENS))
    def test_csv_bytes_match_the_goldens(self, spec_file, tmp_path, name):
        spec, args = CONVERT_GOLDENS[name]
        out = tmp_path / "convert.csv"
        assert main(["convert", "--spec", spec_file(spec), *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"convert_{name}.csv").read_bytes()


class TestRum:
    def test_seeded_runs_are_byte_identical_across_thread_counts(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        old = os.environ.get(THREADS_ENV)
        try:
            os.environ[THREADS_ENV] = "1"
            assert main(["rum", "--family", "gumbel", "--eta", "1.0",
                         "--mu", "1,0,0", "--samples", "200000",
                         "--seed", "42", "--out", str(out_a)]) == 0
            os.environ[THREADS_ENV] = "3"
            assert main(["rum", "--family", "gumbel", "--eta", "1.0",
                         "--mu", "1,0,0", "--samples", "200000",
                         "--seed", "42", "--out", str(out_b)]) == 0
        finally:
            if old is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = old
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_gumbel_matches_closed_form_within_3se(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert main(["rum", "--family", "gumbel", "--eta", "1.0",
                     "--mu", "1,0,0", "--samples", "200000", "--seed", "42",
                     "--out", out]) == 0
        _, header, rows = read_csv(out)
        probs = [float(v) for v in rows[0][3:6]]
        ses = [float(v) for v in rows[0][6:9]]
        target = np.array([math.e, 1.0, 1.0]) / (math.e + 2.0)
        for p, se, q in zip(probs, ses, target):
            assert abs(p - q) <= 3.5 * se

    def test_different_seed_changes_values_within_band(self, tmp_path):
        out_a = str(tmp_path / "s1.csv")
        out_b = str(tmp_path / "s2.csv")
        for seed, out in ((1, out_a), (2, out_b)):
            assert main(["rum", "--family", "gumbel", "--eta", "1.0",
                         "--mu", "0,0,0", "--samples", "100000",
                         "--seed", str(seed), "--out", out]) == 0
        _, _, rows_a = read_csv(out_a)
        _, _, rows_b = read_csv(out_b)
        pa, pb = float(rows_a[0][3]), float(rows_b[0][3])
        assert pa != pb
        assert abs(pa - 1.0 / 3.0) <= 0.01 and abs(pb - 1.0 / 3.0) <= 0.01

    def test_binary_construction_welfare(self, spec_file, tmp_path):
        spec = spec_file({"kind": "mnl", "n": 2, "eta": 1.0})
        out = str(tmp_path / "bin.csv")
        assert main(["rum", "--binary-from-spec", spec, "--mu", "0.5,-0.5",
                     "--samples", "100000", "--seed", "7", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == ["mu_1", "mu_2", "mc_welfare", "std_error",
                          "w_closed_form"]
        est, se, w = (float(rows[0][2]), float(rows[0][3]), float(rows[0][4]))
        assert abs(est - w) <= 4 * se

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("points", [1, 2, 4])
    @pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
    def test_csv_bytes_match_the_goldens(self, tmp_path, monkeypatch, family, points,
                                         threads):
        monkeypatch.setenv(THREADS_ENV, threads)
        out = tmp_path / "rum.csv"
        assert main(["rum", "--family", family, *GOLDEN_FAMILIES[family],
                     "--samples", "150000", "--seed", "4", "--out", str(out)]
                    + [f"--mu={mu}" for mu in GOLDEN_POINTS[:points]]) == 0
        assert out.read_bytes() == (GOLDEN / f"rum_{family}_{points}.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [3, None])
    def test_zero_threads_means_one_per_cpu_with_the_same_bytes(self, tmp_path, monkeypatch,
                                                                cpus):
        # the count os.cpu_count reports, 1 when it reports none
        pools = []
        pool = rum.ThreadPoolExecutor

        def counted(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(rum, "ThreadPoolExecutor", counted)
        csv = {}
        for threads in ("1", "0"):
            monkeypatch.setenv(THREADS_ENV, threads)
            out = tmp_path / f"rum_{threads}.csv"
            assert main(["rum", "--family", "gumbel", *GOLDEN_FAMILIES["gumbel"],
                         "--samples", "150000", "--seed", "4", "--out", str(out)]
                        + [f"--mu={mu}" for mu in GOLDEN_POINTS[:2]]) == 0
            csv[threads] = out.read_bytes()
        assert csv["0"] == csv["1"]
        assert pools == ([cpus] if cpus else [])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_binary_csv_bytes_match_the_golden(self, spec_file, tmp_path, monkeypatch,
                                               threads):
        monkeypatch.setenv(THREADS_ENV, threads)
        out = tmp_path / "bin.csv"
        assert main(["rum", "--binary-from-spec", spec_file(MNL2), "--mu=0.5,-0.5",
                     "--mu=-1,0.25", "--samples", "150000", "--seed", "4",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "rum_binary_mnl_2.csv").read_bytes()

    def test_four_points_draw_each_partition_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "1")
        sizes = []

        gumbel_sampler = cli.gumbel_sampler

        def counted(eta, n):
            sampler = gumbel_sampler(eta, n)

            def draw(rng, size):
                sizes.append(size)
                return sampler.draw(rng, size)

            return replace(sampler, draw=draw)

        monkeypatch.setattr(cli, "gumbel_sampler", counted)
        assert main(["rum", "--samples", str(2 * MC_CHUNK + 17),
                     "--out", str(tmp_path / "rum.csv")]
                    + [f"--mu={mu}" for mu in GOLDEN_POINTS]) == 0
        assert sizes == [MC_CHUNK, MC_CHUNK, 17]

    def test_binary_noise_past_the_float_range_exits_3(self, spec_file, capsys):
        # xi = eta logit(u) overflows at eta = 1e308: inf and NaN were printed with exit 0
        assert main(["rum", "--binary-from-spec", spec_file({"kind": "mnl", "n": 2, "eta": 1e308}),
                     "--mu=0,0", "--samples", "1000"]) == 3
        assert "leaves the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, mu", [
        (["--family", "gumbel", "--eta", "1e307", "--mu", "0,0"], [0.0, 0.0]),
        (["--family", "normal", "--sd", "1e307", "--mu", "1,2", "--mu", "0,0"], [1.0, 2.0]),
        (["--binary-from-spec", {"kind": "transform_scale", "eta": 1e308, "inner": {
            "kind": "transform_cross", "matrix": [[1, 0], [0, 1], [0.5, 0.5]],
            "inner": {"kind": "mnl", "n": 3, "eta": 1.0}}}, "--mu", "0.5,-0.5"], [0.5, -0.5]),
    ], ids=["gumbel", "normal", "binary"])
    def test_a_non_finite_welfare_estimate_exits_3_naming_the_point(self, spec_file, capsys,
                                                                    argv, mu):
        # the sums of the maxima overflow: mc_welfare inf and its error nan
        # were printed with exit 0
        argv = [spec_file(a) if isinstance(a, dict) else a for a in argv]
        assert main(["rum", *argv, "--samples", "1000", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"numeric failure: the mean maximum or its standard error has value "
                         rf"(inf|nan) at mu={re.escape(str(mu))}", captured.err)

    def test_binary_closed_form_column_is_one_solve(self, spec_file, tmp_path, monkeypatch):
        # w_closed_form was one model.value call per --mu point, a RAM solve each
        from welfarechoice import ram
        mus = np.array([[0.5, -0.5], [-1.0, 0.25], [2.0, 1.0]])
        solves = []
        argmax = ram._argmax

        def counting(reg, mu):
            if any(np.all(mu == p, axis=1).any() for p in mus):
                solves.append(len(mu))
            return argmax(reg, mu)

        monkeypatch.setattr(ram, "_argmax", counting)
        assert main(["rum", "--binary-from-spec",
                     spec_file({"kind": "ram_mmm", "sigma": [1.0, 2.0]}),
                     "--samples", "200", "--out", str(tmp_path / "bin.csv")]
                    + [f"--mu={a},{b}" for a, b in mus]) == 0
        assert solves == [3]
        _, _, rows = read_csv(str(tmp_path / "bin.csv"))
        assert [float(row[4]) for row in rows] == pytest.approx(
            [build_model({"kind": "ram_mmm", "sigma": [1.0, 2.0]}).model(mu) for mu in mus],
            rel=1e-9)

    def test_binary_cdf_calls_do_not_grow_with_points(self, spec_file, tmp_path,
                                                       monkeypatch):
        calls = []
        binary_rum_from_welfare = cli.binary_rum_from_welfare

        def counted(model):
            # without its V, so the construction inverts the CDF by gradient calls
            model = replace(model, regularizer=None)
            construction = binary_rum_from_welfare(model)

            def gradient(mu):
                calls.append(np.shape(mu))
                return model.gradient(mu)

            return replace(construction, model=replace(model, gradient=gradient))

        monkeypatch.setattr(cli, "binary_rum_from_welfare", counted)
        spec = spec_file(MNL2)
        made = []
        for points in (1, 4):
            calls.clear()
            assert main(["rum", "--binary-from-spec", spec, "--samples", "5000",
                         "--out", str(tmp_path / "bin.csv")]
                        + ["--mu=0.5,-0.5"] * points) == 0
            made.append(len(calls))
        assert 0 < made[1] <= made[0]

    @pytest.mark.parametrize("option", [["--family", "gumbel", "--eta", "nan"],
                                        ["--family", "normal", "--sd", "inf"],
                                        ["--family", "logistic", "--scale", "-1"]])
    def test_non_finite_or_nonpositive_scale_exits_2(self, option, capsys):
        assert main(["rum", *option, "--mu", "0,0", "--samples", "100"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_exit_2(self, samples):
        assert main(["rum", "--family", "gumbel", "--mu", "0,0",
                     "--samples", samples]) == 2

    def test_binary_construction_of_a_two_alternative_mmm(self, spec_file, tmp_path):
        # the bracket search solves at mu = (-64, 0), where mirror descent failed
        spec = spec_file({"kind": "ram_mmm", "sigma": [1.0, 2.0]})
        out = str(tmp_path / "bin.csv")
        assert main(["rum", "--binary-from-spec", spec, "--mu", "0.5,-0.5",
                     "--samples", "200", "--seed", "1", "--out", out]) == 0
        _, _, rows = read_csv(out)
        est, se, w = (float(rows[0][2]), float(rows[0][3]), float(rows[0][4]))
        assert abs(est - w) <= 4 * se


    def test_binary_construction_of_a_two_alternative_cmm(self, spec_file, tmp_path):
        # the bracket search failed to solve at mu = (16384, 0); xi is read from V
        spec = spec_file({"kind": "ram_cmm", "covariance": [[2.0, 0.3], [0.3, 1.0]]})
        out = str(tmp_path / "bin.csv")
        assert main(["rum", "--binary-from-spec", spec, "--mu", "0.5,-0.5",
                     "--seed", "7", "--out", out]) == 0
        comments, _, rows = read_csv(out)
        config = json.loads(comments[2].removeprefix("# config="))
        assert config["bracket"] is None and config["truncated"] is False
        est, se, w = (float(rows[0][2]), float(rows[0][3]), float(rows[0][4]))
        assert abs(est - w) <= 4 * se


MNL2_SPEC = {"kind": "mnl", "n": 2, "eta": 1.0}
W_TO_V, W_TO_THETA = ["--direction", "w-to-v"], ["--direction", "w-to-theta"]


class TestPointLists:
    """--mu, --x and --anchor are parsed by one helper, whose messages name the field."""

    @pytest.mark.parametrize("spec, argv, message", [
        (MNL3, ["convert", *W_TO_V, "--x", "0.2,0.3,0.5", "--x", "0.5,0.5"],
         "--x: expected 3 entries, got 2"),
        (MNL3, ["convert", *W_TO_V], "--x: at least one point is required"),
        (MNL3, ["convert", *W_TO_THETA, "--anchor", "0,0"],
         "--anchor: expected 3 entries, got 2"),
        (MNL3, ["convert", *W_TO_THETA], "--anchor: at least one point is required"),
        (MNL3, ["eval", "--mu", "0,0,0", "--mu", "0,0"], "--mu: expected 3 entries, got 2"),
        (ENTROPY3, ["convert", "--direction", "v-to-w", "--mu", "1,2"],
         "--mu: expected 3 entries, got 2"),
        (None, ["rum", "--mu", "0,0", "--mu", "0,0,0"], "--mu: expected 2 entries, got 3"),
        (None, ["rum"], "--mu: at least one point is required"),
        (MNL2_SPEC, ["rum", "--mu", "0,0,0"], "--mu: expected 2 entries, got 3"),
        # an empty field was dropped: 1,,2,3 read as (1, 2, 3)
        (MNL3, ["eval", "--mu", "1,,2,3"], "--mu: cannot parse vector '1,,2,3'"),
        (MNL3, ["eval", "--mu", "1,2,3,"], "--mu: cannot parse vector '1,2,3,'"),
        (MNL3, ["convert", *W_TO_V, "--x", ",0.5,0.5"], "--x: cannot parse vector ',0.5,0.5'"),
    ])
    def test_bad_point_lists_exit_2_naming_the_field(self, spec_file, capsys, spec, argv,
                                                     message):
        if spec is not None:
            option = "--binary-from-spec" if argv[0] == "rum" else "--spec"
            argv = [argv[0], option, spec_file(spec), *argv[1:]]
        assert main(argv) == 2
        assert f"input error: {message}" in capsys.readouterr().err


class TestUnusablePaths:
    """A spec that cannot be read or an --out that cannot be written is an input
    error naming the option; a directory as --spec and an --out in a missing
    directory exited 3, as numeric failures."""

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_an_out_that_cannot_be_written_exits_2(self, spec_file, tmp_path, capsys, where):
        out = tmp_path / "no-such-dir" / "eval.csv" if where == "missing" else tmp_path
        assert main(["eval", "--spec", spec_file(MNL3), "--mu", "0,0,0",
                     "--out", str(out)]) == 2
        assert f"input error: --out: cannot write {out}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]  # no temporary left

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_a_spec_that_cannot_be_read_exits_2(self, tmp_path, capsys, where):
        spec = tmp_path / "missing.json" if where == "missing" else tmp_path
        assert main(["eval", "--spec", str(spec), "--mu", "0,0,0"]) == 2
        assert f"input error: spec: cannot read {spec}" in capsys.readouterr().err

    def test_a_spec_that_is_not_utf8_exits_2_naming_the_option(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b"\xff\xfe\x00")
        assert main(["eval", "--spec", str(spec), "--mu", "0,0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: spec: cannot read {spec}: not UTF-8"), err


class TestInProcessCalls:
    """`main` builds its parser once per process; a call leaves nothing behind."""

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_an_unexpected_exception_exits_3(self, spec_file, capsys, monkeypatch):
        def broken(spec):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "build_model", broken)
        assert main(["validate", "--spec", spec_file(MNL3)]) == 3
        assert capsys.readouterr().err == "numeric failure: KeyError: 'internal'\n"

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_calls_print_the_same_bytes(self, spec_file, capsys):
        spec = spec_file(MNL3)
        calls = [["eval", "--spec", spec, "--mu", "0.5,0,-0.5", "--mu", "1,2,3"],
                 ["figure", "--example", "2"],
                 ["convert", "--spec", spec, "--direction", "w-to-v", *CONVERT_X[:2]]]
        first = [self.run(capsys, argv) for argv in calls]
        assert all(code == 0 and out for code, out in first)
        assert [self.run(capsys, argv) for argv in calls] == first

    def test_points_of_one_call_do_not_reach_the_next(self, spec_file, capsys):
        spec = spec_file(MNL3)
        code, one = self.run(capsys, ["eval", "--spec", spec, "--mu", "7,8,9"])
        assert code == 0 and one.splitlines()[-1].startswith("7,8,9,")
        code, other = self.run(capsys, ["eval", "--spec", spec, "--mu", "0,0,0"])
        assert code == 0 and len(other.splitlines()) == 5
        assert "7,8,9" not in other and '"mu":[[0.0,0.0,0.0]]' in other
        # with no --mu at all the list is empty again, not the last call's
        assert main(["eval", "--spec", spec]) == 2
        assert "--mu: at least one point is required" in capsys.readouterr().err

    @pytest.mark.parametrize("interrupt, exit_code", [
        (["eval", "--no-such-option"], 2),
        (["figure", "--example", "4"], 2),
        (["--version"], 0)], ids=["unknown-option", "bad-choice", "version"])
    def test_an_early_exit_leaves_the_next_call_unchanged(self, spec_file, capsys,
                                                          interrupt, exit_code):
        argv = ["eval", "--spec", spec_file(MNL3), "--mu", "0.25,-1,2"]
        before = self.run(capsys, argv)
        assert self.run(capsys, interrupt)[0] == exit_code
        assert self.run(capsys, argv) == before


class TestCsvCells:
    # the rule `_csv` had per cell: format(float(x), ".10g"), with "-0" printed "0"
    VALUES = [-0.0, 0.0, 5e-324, -1e-320, 1e16, 123456789012, np.inf, -np.inf, np.nan,
              np.float32(0.1), 7, np.int64(-42), np.float64(-0.0), 1.0 / 3.0]

    @staticmethod
    def cell(x):
        out = format(float(x), ".10g")
        return "0" if out == "-0" else out

    def test_cells_match_the_per_cell_rule(self, capsys):
        rows = [[x, f"text {k}", -x if isinstance(x, float) else x]
                for k, x in enumerate(self.VALUES)]
        cli._csv("eval", {"k": 1}, ["x", "label", "y"], list(zip(*rows)), None)
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["# welfarechoice " + cli.__version__, "# command=eval",
                             '# config={"k":1}', "x,label,y"]
        assert lines[4:] == [f"{self.cell(a)},{b},{self.cell(c)}" for a, b, c in rows]
        assert lines[4:7] == ["0,text 0,0", "0,text 1,0",
                              "4.940656458e-324,text 2,-4.940656458e-324"]

    def test_a_table_without_rows_is_its_header(self, capsys):
        cli._csv("eval", {}, ["x", "y"], [[], []], None)
        assert capsys.readouterr().out.splitlines()[-1] == "x,y"


class TestValidate:
    def test_valid_spec(self, spec_file):
        assert main(["validate", "--spec", spec_file(MNL3)]) == 0

    @pytest.mark.parametrize("spec, mu", [
        ({"kind": "nested_logit", "n": 3, "nests": [[1, 2], [3]],
          "lambdas": [math.nan, 1.0]}, "1,0,0"),
        ({"kind": "mnl", "n": 3, "eta": math.inf}, "1,0,0"),
        ({"kind": "mnl", "n": 3, "eta": 10 ** 400}, "1,0,0"),
        ({"kind": "transform_scale", "eta": -math.inf, "inner": MNL3}, "1,0,0"),
        ({"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": math.nan}] * 2},
         "1,0"),
        ({"kind": "transform_mix", "n": 2, "components": [
            {"weight": math.nan, "indices": [1, 2], "inner": MNL2}]}, "1,0"),
        ({**BRAND_CROSS, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [math.nan, 0.5, 0]]},
         "1,0,0")],
        ids=["nan_lambda", "inf_eta", "huge_int_eta", "minus_inf_scale", "nan_marginal",
             "nan_weight", "nan_cross_entry"])
    def test_non_finite_parameters_exit_2(self, spec_file, capsys, spec, mu):
        # json reads NaN, Infinity and integers past float; these printed nan
        # or inf with exit 0, or failed with exit 3
        assert main(["eval", "--spec", spec_file(spec), "--mu", mu]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "input error" in captured.err

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("spec, field", [
        ({"kind": "gev_custom", "eta": 1.0, "exponents": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "exponents"),
        (BRAND_CROSS, "matrix"),
        ({"kind": "ram_quadratic", "matrix": [[3, 2, 0], [2, 3, 2], [0, 2, 3]]}, "matrix"),
        ({"kind": "ram_cmm", "covariance": [[9, 0.9, 0.9], [0.9, 9, 0.9], [0.9, 0.9, 9]]},
         "covariance")], ids=["gev_custom", "transform_cross", "ram_quadratic", "ram_cmm"])
    def test_non_finite_matrix_entries_exit_2(self, spec_file, capsys, spec, field, bad):
        # each kind once found out on its own: "row sums must equal 1/eta",
        # "entries must be nonnegative", "Eigenvalues did not converge" (the
        # last after a numpy RuntimeWarning)
        matrix = [list(row) for row in spec[field]]
        matrix[1][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--spec", spec_file({**spec, field: matrix})]) == 2
        assert f"input error: {field}: entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        # fields of the wrong JSON type, which exited 3 with a TypeError
        ({"kind": "ram_mdm", "marginals": [1, 2]}, "marginals[0]: expected an object"),
        ({"kind": "transform_mix", "n": 2, "components": [3]},
         "components[0]: expected an object"),
        ({"kind": "transform_mix", "n": 2, "components": [
            {"weight": 1.0, "indices": 3, "inner": MNL2}]}, "transform_mix: "),
        ({"kind": "transform_mix", "n": 2, "components": [
            {"weight": 1.0, "indices": ["a", "b"], "inner": MNL2}]}, "transform_mix: "),
        ({"kind": "nested_logit", "n": 2, "nests": 3, "lambdas": [0.5]}, "nested_logit: "),
        ({"kind": "nested_logit", "n": 2, "nests": [["a"]], "lambdas": [0.5]},
         "nested_logit: "),
        ({"kind": "ram_mmm", "sigma": {"a": 1}}, "ram_mmm: "),
        # the other refusals of a field
        ([MNL3], "spec: expected an object"),
        ({"kind": "transform_scale", "eta": 1.0, "inner": 3}, "inner: expected an object"),
        ({"kind": "mnl", "n": 3}, "eta: missing required field"),
        ({"kind": "mnl", "n": 3, "eta": "1"}, "eta: expected a number"),
        ({"kind": "mnl", "n": 1, "eta": 1.0}, "n: expected an integer >= 2"),
        ({"kind": "ram_quadratic", "matrix": [[1, "a"], [0, 1]]},
         "matrix: not a numeric matrix"),
        ({"kind": "ram_quadratic", "matrix": [1, 2]}, "matrix: expected a matrix"),
        ({"kind": "ram_mdm", "marginals": [{"family": "cauchy"}, {"family": "uniform"}]},
         "marginals[0].family: unknown marginal family 'cauchy'"),
        # each value a marginal constructor would refuse is refused here first
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"},
                                           {"family": "exponential", "rate": 0}]},
         "marginals[1].rate: must be positive"),
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"},
                                           {"family": "logistic", "scale": -1}]},
         "marginals[1].scale: must be positive"),
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"},
                                           {"family": "normal", "sd": 1e400}]},
         "marginals[1].sd: must be finite"),
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"},
                                           {"family": "normal", "sd": True}]},
         "marginals[1].sd: expected a number, got True"),
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"}, "normal"]},
         "marginals[1]: expected an object"),
        ({"kind": "ram_mdm", "marginals": [{"family": "uniform"}]},
         "marginals: expected a list of >= 2 marginals"),
        ({"kind": "transform_mix", "n": 2, "components": []},
         "components: expected a nonempty list"),
        ({"kind": "gev_custom", "eta": 1.0, "exponents": [[1.5, -0.5], [0, 1]]},
         "exponents: entries must be nonnegative"),
    ], ids=["marginal_number", "component_number", "indices_number", "indices_strings",
            "nests_number", "nest_strings", "sigma_object", "spec_list", "inner_number",
            "missing_field", "number_as_string", "small_n", "matrix_string_entry",
            "matrix_as_vector", "unknown_family", "zero_rate", "negative_scale",
            "sd_past_float", "sd_boolean", "marginal_string", "one_marginal", "no_components",
            "negative_exponent"])
    def test_a_malformed_field_exits_2_naming_it_or_its_kind(self, spec_file, capsys, spec,
                                                             message):
        assert main(["validate", "--spec", spec_file(spec)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "ram_mmm", "sigma": [2.0]}, "ram_mmm: sigma must"),
        ({"kind": "ram_mmm", "sigma": 2.0}, "ram_mmm: sigma must"),
        ({"kind": "ram_quadratic", "matrix": [[1.0]]}, "ram_quadratic: A must"),
        ({"kind": "ram_cmm", "covariance": [[1.0]]}, "ram_cmm: covariance must"),
    ], ids=["mmm", "mmm_scalar", "quadratic", "cmm"])
    def test_a_one_alternative_ram_spec_exits_2(self, spec_file, capsys, spec, message):
        # each built a model with n = 1: validate printed "valid", and eval
        # at mu = 0 printed w = 0, q = 1 with exit 0
        for argv in (["validate"], ["eval", "--mu", "0"]):
            assert main([*argv, "--spec", spec_file(spec)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {message}") and "n >= 2" in err

    def test_a_zero_sigma_mmm_spec_exits_2(self, spec_file, capsys):
        # V was not strictly convex: validate exited 0, and every solve refused it
        spec = spec_file({"kind": "ram_mmm", "sigma": [1.0, 0.0]})
        assert main(["validate", "--spec", spec]) == 2
        assert capsys.readouterr().err.startswith("input error: ram_mmm: sigma must")

    @pytest.mark.parametrize("marginal", [{"family": "normal", "sd": 1e308},
                                          {"family": "logistic", "scale": 1e308},
                                          {"family": "exponential", "rate": 1e-308}],
                             ids=["normal", "logistic", "exponential"])
    def test_a_marginal_whose_quantile_overflows_exits_2(self, spec_file, capsys, marginal):
        # validate exited 0 after a RuntimeWarning from the quantile at the clip
        spec = {"kind": "ram_mdm", "marginals": [{"family": "uniform"}, marginal]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--spec", spec_file(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: ram_mdm: {marginal['family']}(") and "finite" in err

    def test_unknown_kind(self, spec_file):
        assert main(["validate", "--spec", spec_file({"kind": "mystery"})]) == 2

    def test_invalid_nest_partition(self, spec_file):
        spec = spec_file({"kind": "nested_logit", "n": 3,
                          "nests": [[1, 2], [2, 3]], "lambdas": [0.5, 0.5]})
        assert main(["validate", "--spec", spec]) == 2

    def test_gev_custom_row_sums_checked(self, spec_file):
        spec = spec_file({"kind": "gev_custom", "eta": 1.0,
                          "exponents": [[0.5, 0.2, 0.0]]})
        assert main(["validate", "--spec", spec]) == 2

    def test_gev_custom_valid(self, spec_file):
        spec = spec_file({"kind": "gev_custom", "eta": 1.0,
                          "exponents": [[1.0, 0.0, 0.0],
                                        [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0],
                                        [0.5, 0.5, 0.0]]})
        assert main(["validate", "--spec", spec]) == 0

    def test_readme_spec_examples_build(self, spec_file, tmp_path, capsys):
        specs = readme_specs()
        assert sorted(spec["kind"] for spec in specs) == sorted(KINDS)
        # at utility spreads up to 1e300 each gives finite rows, or exit 3
        # naming the point; the separable solves exited 3 with "numeric
        # failure: OverflowError" past ~1e296
        out = str(tmp_path / "eval.csv")
        for spec in specs:
            n = build_model(spec).model.n
            path = spec_file(spec)
            for lead in (1e300, -1e300, 1e150):
                mu = ",".join(map(repr, [lead] + [0.0] * (n - 1)))
                code = main(["eval", "--spec", path, f"--mu={mu}", "--out", out])
                err = capsys.readouterr().err
                assert code in (0, 3), (spec["kind"], lead, err)
                assert not re.match(r"numeric failure: \w+(Error|Warning):", err), err
                if code == 0:
                    _, _, rows = read_csv(out)
                    assert all(math.isfinite(float(v)) for v in rows[0]), (spec["kind"], lead)
                else:
                    assert "mu=[" in err or "mu = [" in err, (spec["kind"], lead, err)


def readme_block(after, language):
    """The first README code block in `language` after the text `after`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(after, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_specs():
    """The "Model spec files" block of the README: one JSON document per example."""
    block = readme_block("Model spec files are JSON", "json")
    decoder, specs, rest = json.JSONDecoder(), [], block.strip()
    while rest:
        spec, end = decoder.raw_decode(rest)
        specs.append(spec)
        rest = rest[end:].lstrip()
    return specs


def test_readme_quick_start_runs():
    """The README's "Library quick start" block runs as written, with
    RuntimeWarnings as errors."""
    block = readme_block("## Library quick start", "python")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, "README.md (Library quick start)", "exec"), {})


def test_output_contract_sweep(spec_file, tmp_path, capsys):
    """Every README spec, and one scaled past the float range, through `eval`
    and each `convert` direction it allows, at the edges of the float range:
    exit 0 with every CSV cell finite, or exit 2/3 with no CSV, naming a point.
    RuntimeWarnings are errors, so a leaked one reads "numeric failure: RuntimeWarning:"."""
    started = time.perf_counter()
    specs = readme_specs() + [{"kind": "transform_scale", "eta": 1e308,
                               "inner": {"kind": "mnl", "n": 3, "eta": 1}}]
    out = tmp_path / "out.csv"
    for spec in specs:
        bundle = build_model(spec)
        n, path = bundle.model.n, spec_file(spec)
        edges = [[1e308, -1e308] + [0.0] * (n - 2), [0.0] * n]
        xs = [[1.0 / n] * n, [1.0 - (n - 1) * 1e-6] + [1e-6] * (n - 1)]
        runs = [(["eval", "--mu"], mu) for mu in edges]
        runs += [(["convert", "--direction", "w-to-v", "--x"], x) for x in xs]
        if bundle.regularizer is not None:
            runs += [(["convert", "--direction", "v-to-w", "--mu"], mu) for mu in edges]
        if bundle.model.superlinear_bounds is not None:
            runs += [(["convert", "--direction", "w-to-theta", "--anchor"], z) for z in edges]
        for (command, *options, flag), point in runs:
            out.unlink(missing_ok=True)
            code = main([command, "--spec", path, *options,
                         f"{flag}={','.join(map(repr, point))}", "--out", str(out)])
            err = capsys.readouterr().err
            where = (spec["kind"], command, *options, point, err)
            assert not re.match(r"numeric failure: \w+(Error|Warning):", err), where
            if code == 0:
                _, _, rows = read_csv(str(out))
                assert all(math.isfinite(float(v)) for row in rows for v in row), where
            else:
                assert code in (2, 3) and not out.exists(), where
                assert re.search(r"\b(mu|x|target) ?= ?\[", err), where
    assert time.perf_counter() - started < 2.0


def scipy_modules_after(code):
    """scipy modules loaded by running `code` in a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is imported by the functions that use it, not at start-up
    assert scipy_modules_after("import sys, welfarechoice.cli") == "[]"


def test_ram_solves_load_no_scipy():
    # one solve and one welfare evaluation per RAM family, MDM with logistic
    # marginals; none of their paths needs scipy
    specs = [{"kind": "ram_entropy", "n": 3, "eta": 1.0},
             {"kind": "ram_quadratic", "matrix": [[3, 2, 0], [2, 3, 2], [0, 2, 3]]},
             {"kind": "ram_logbarrier", "n": 3},
             {"kind": "ram_mdm", "marginals": [{"family": "logistic", "scale": s}
                                               for s in (1.0, 0.7, 1.5)]},
             {"kind": "ram_mmm", "sigma": [2.0, 2.5, 2.0]},
             {"kind": "ram_cmm", "covariance": [[9, 0.9, 0.9], [0.9, 9, 0.9],
                                                [0.9, 0.9, 9]]}]
    code = ("import sys, numpy as np\n"
            "from welfarechoice import modelspec, ram\n"
            f"for spec in {specs!r}:\n"
            "    b = modelspec.build_model(spec)\n"
            "    mu = np.array([0.4, -0.3, 0.1])\n"
            "    assert ram.solve_ram(b.regularizer, mu).converged\n"
            "    b.model.value(mu), b.model.gradient(mu + 1.0)")
    assert scipy_modules_after(code) == "[]"


def test_custom_mdm_value_loads_no_scipy():
    # a custom marginal's tail is a fixed rule in numpy, not scipy.integrate
    code = ("import sys, numpy as np\n"
            "from welfarechoice import ram\n"
            "custom = ram.custom_marginal(lambda t: np.log(t) - np.log1p(-t))\n"
            "reg = ram.mdm_regularizer([custom, ram.logistic_marginal(1.0)])\n"
            "assert np.isfinite(reg.value(np.array([0.3, 0.7])))")
    assert scipy_modules_after(code) == "[]"
