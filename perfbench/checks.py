"""Correctness checks applied to the program's outputs.

Each check returns None when the output is right and raises `Mismatch`
with a one-line reason when it is not.
"""

from __future__ import annotations

import math
from typing import Sequence


class Mismatch(AssertionError):
    """An output disagrees with its reference or lacks a required property."""


def _vec(x) -> list[float]:
    if isinstance(x, (int, float)):
        return [float(x)]
    return [float(v) for v in x]


def finite(x, what: str) -> None:
    if not all(math.isfinite(v) for v in _vec(x)):
        raise Mismatch(f"{what}: non-finite entries {list(_vec(x))}")


def close(actual, expected, tol: float, what: str) -> None:
    """max_i |actual_i - expected_i| <= tol (absolute)."""
    a, e = _vec(actual), _vec(expected)
    if len(a) != len(e):
        raise Mismatch(f"{what}: length {len(a)} != {len(e)}")
    finite(a, what)
    err = max(abs(x - y) for x, y in zip(a, e))
    if not err <= tol:
        raise Mismatch(f"{what}: max abs error {err:.3e} > {tol:.0e}")


def rel_close(actual, expected, tol: float, what: str) -> None:
    """max_i |a_i - e_i| / max(1, max_i |e_i|) <= tol."""
    a, e = _vec(actual), _vec(expected)
    if len(a) != len(e):
        raise Mismatch(f"{what}: length {len(a)} != {len(e)}")
    finite(a, what)
    scale = max(1.0, max(abs(v) for v in e))
    err = max(abs(x - y) for x, y in zip(a, e)) / scale
    if not err <= tol:
        raise Mismatch(f"{what}: relative error {err:.3e} > {tol:.0e}")


def on_simplex(q, what: str, tol: float = 1e-9) -> None:
    v = _vec(q)
    finite(v, what)
    if min(v) < -1e-12:
        raise Mismatch(f"{what}: negative entry {min(v):.3e}")
    if abs(math.fsum(v) - 1.0) > tol:
        raise Mismatch(f"{what}: entries sum to {math.fsum(v)!r}")


def nondecreasing(values: Sequence[float], what: str, tol: float = 0.0) -> None:
    v = _vec(values)
    for k in range(1, len(v)):
        if v[k] < v[k - 1] - tol:
            raise Mismatch(f"{what}: decreases at index {k} ({v[k - 1]!r} -> {v[k]!r})")


def within_se(estimate, reference, se, k: float, what: str) -> None:
    """|estimate_i - reference_i| <= k * se_i for every component."""
    est, ref, s = _vec(estimate), _vec(reference), _vec(se)
    finite(est, what)
    for i, (x, r, e) in enumerate(zip(est, ref, s)):
        if not abs(x - r) <= k * e:
            raise Mismatch(f"{what}[{i}]: {x!r} vs {r!r} is "
                           f"{abs(x - r) / e if e > 0 else math.inf:.2f} SE (> {k:g})")


def equal(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {actual!r}, expected {expected!r}")


def holds(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def csv_table(text: str, header: Sequence[str]) -> list[list[str]]:
    """Rows of a program CSV: manifest lines start with '#', then the header."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or not lines[0].startswith("# welfarechoice "):
        raise Mismatch("csv: missing version line")
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0].split(",") != list(header):
        raise Mismatch(f"csv: header {body[0] if body else None!r} != {','.join(header)!r}")
    rows = [ln.split(",") for ln in body[1:]]
    for r in rows:
        if len(r) != len(header):
            raise Mismatch(f"csv: row {r} has {len(r)} cells, header {len(header)}")
    return rows
