"""Every correctness check rejects a deliberately wrong output.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import checks as ck  # noqa: E402
import workloads  # noqa: E402
from worker import job_rng  # noqa: E402


def test_close_and_rel_close():
    ck.close([1.0, 2.0], [1.0, 2.0 + 1e-10], 1e-9, "v")
    with pytest.raises(ck.Mismatch):
        ck.close([1.0, 2.0], [1.0, 2.1], 1e-9, "v")
    with pytest.raises(ck.Mismatch):
        ck.close([1.0], [1.0, 2.0], 1e-9, "v")
    with pytest.raises(ck.Mismatch):
        ck.close([float("nan")], [1.0], 1e9, "v")
    ck.rel_close([100.0], [100.0 + 1e-4], 1e-5, "v")
    with pytest.raises(ck.Mismatch):
        ck.rel_close([100.0], [100.01], 1e-5, "v")


def test_on_simplex():
    ck.on_simplex([0.2, 0.8], "q")
    with pytest.raises(ck.Mismatch):
        ck.on_simplex([0.2, 0.7], "q")
    with pytest.raises(ck.Mismatch):
        ck.on_simplex([-0.1, 1.1], "q")


def test_nondecreasing_and_within_se():
    ck.nondecreasing([0.1, 0.1, 0.3], "v")
    with pytest.raises(ck.Mismatch):
        ck.nondecreasing([0.1, 0.3, 0.2], "v")
    ck.within_se([1.0], [1.05], [0.01], 6.0, "v")
    with pytest.raises(ck.Mismatch):
        ck.within_se([1.0], [1.07], [0.01], 6.0, "v")


def test_csv_table():
    text = "# welfarechoice 0.1.0\n# command=eval\nmu_1,w\n1,2\n"
    assert ck.csv_table(text, ["mu_1", "w"]) == [["1", "2"]]
    with pytest.raises(ck.Mismatch):
        ck.csv_table(text, ["mu_1", "q"])
    with pytest.raises(ck.Mismatch):
        ck.csv_table("mu_1,w\n1,2\n", ["mu_1", "w"])


# Record fields a corruption leaves alone: standard errors set the check's
# own tolerance, and moving them up would make a wrong value acceptable.
KEEP = ("std_error", "std_errors")


def corrupt(out, in_record=False):
    """A wrong version of an output: every float moved, flag flipped, label
    and exit code changed. Integer fields of result records (orders, sample
    counts, seeds) are bookkeeping and stay."""
    if isinstance(out, (bool, np.bool_)):
        return not out
    if isinstance(out, (int, np.integer)):
        return out if in_record else int(out) + 1
    if isinstance(out, (float, np.floating)):
        return float(out) + 0.25
    if isinstance(out, str):
        return "corrupted"
    if isinstance(out, np.ndarray):
        bad = np.array(out, dtype=float)
        bad.flat[0] += 0.25
        return bad
    if isinstance(out, (list, tuple)):
        return type(out)(corrupt(v, in_record) for v in out)
    if isinstance(out, dict):
        return {k: corrupt(v, in_record) for k, v in out.items()}
    if dataclasses.is_dataclass(out):
        return dataclasses.replace(out, **{f.name: corrupt(getattr(out, f.name), True)
                                          for f in dataclasses.fields(out)
                                          if f.init and f.name not in KEEP})
    if out is None:
        return 0.25
    raise TypeError(f"cannot corrupt {type(out)}")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload_ops(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param](
        str(tmp_path_factory.mktemp(request.param)), workloads.Instrument())
    workload.setup()
    ops = workload.job(job_rng(7, request.param, 1)) + workload.after_jobs()
    return [(op, op.call()) for op in ops]


def test_checks_accept_the_program_and_reject_corrupted_outputs(workload_ops):
    for op, out in workload_ops:
        if op.fault:
            with pytest.raises(ck.Mismatch):
                op.check(out)
            continue
        op.check(out)
        with pytest.raises(ck.Mismatch):
            op.check(corrupt(out))


def test_cli_checks_reject_corrupted_csv(workload_ops):
    cli_ops = [(op, out) for op, out in workload_ops
               if op.name.startswith("cli.") and not op.fault]
    assert cli_ops
    for op, (code, text, err) in cli_ops:
        lines = text.split("\n")
        header = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        # the last data row's second cell moves by 0.25; then all rows go
        row = lines[-2].split(",")
        row[1] = str(float(row[1]) + 0.25)
        with pytest.raises(ck.Mismatch):
            op.check((code, "\n".join(lines[:-2] + [",".join(row), ""]), err))
        with pytest.raises(ck.Mismatch):
            op.check((code, "\n".join(lines[:header + 1] + [""]), err))
